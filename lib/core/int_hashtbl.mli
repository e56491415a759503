(** Hash tables keyed by [int], with int-only hashing and equality.

    The syscall trap path looks up its driver on every call, a
    capsule's grant entry looks up the process's grant, and an emulated
    app looks up the closure behind each delivered upcall. The stdlib's
    polymorphic [Hashtbl] hashes and compares those keys through the
    generic C primitives; this instance does a few integer operations
    instead. Use [find] with a [Not_found] handler on hot paths:
    [find_opt] boxes its result. (A process's subscribe and allow
    tables hold a handful of keys each and are scanned arrays in
    {!Process}.) *)

module Int : Hashtbl.S with type key = int
