(** Deadline calendar for the fleet scheduler: a 4-ary min-heap keyed
    by absolute simulated-cycle deadlines, ties broken by insertion
    order (stable, reproducible dispatch). Single-owner — one calendar
    per domain; groups migrate between domains only through
    {!Ws_deque}. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> key:int -> 'a -> unit

val pop_min : 'a t -> ('a * int) option
(** Remove and return the entry with the smallest key (earliest
    deadline), with its key. *)
