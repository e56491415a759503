(** Deadline calendar for the fleet scheduler's parked witnesses: a
    4-ary min-heap keyed by absolute simulated-cycle deadlines, ties
    broken by insertion order (stable, reproducible resume order).
    Single-owner — one calendar per domain. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> key:int -> 'a -> unit

val pop_min : 'a t -> 'a option
(** Remove and return the entry with the smallest key (earliest
    deadline). *)
