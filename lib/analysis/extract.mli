(** Stanzas of dune files, with line numbers, for the dune-level lint
    rules. OCaml sources are read by {!Ast_extract}. *)

type stanza = {
  stanza_kind : string;
  stanza_names : string list;
  stanza_libraries : (string * int) list;
  stanza_line : int;
}

val dune_stanzas : string -> stanza list
(** Stanzas of kind library/executable/executables/test, with their
    [name]/[names] and [libraries] fields. *)
