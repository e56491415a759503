(** Hash tables keyed by [int] and by [(int * int)], with int-only
    hashing and equality.

    The syscall trap path looks up drivers, subscriptions, allows and
    upcall closures on every call. The stdlib's polymorphic [Hashtbl]
    hashes and compares those keys through the generic C primitives;
    these instances do a few integer operations instead. Use [find] with
    a [Not_found] handler on hot paths: [find_opt] boxes its result. *)

module Int : Hashtbl.S with type key = int

module Pair : Hashtbl.S with type key = int * int
