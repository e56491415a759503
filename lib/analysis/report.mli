(** Report emission (text and JSON). Every unsuppressed violation fails
    the gate; the only suppression is an in-source pragma with its
    reason. *)

val text : Rules.result -> string

val json : Rules.result -> string
(** [{"all", "suppressed", "summary"}]: the unsuppressed and the
    allowlisted sites, and their counts. *)
