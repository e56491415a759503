(** CRC-16/CCITT-FALSE: the link-layer frame checksum.

    Shared by every consumer (net stack, benches, tests) so the
    polynomial lives in exactly one place. Three kernels computing the
    same function: {!Reference} is the bitwise oracle, {!digest} the
    256-entry-table scalar kernel, and {!update_fast} a slicing-by-4
    kernel for the zero-copy data plane. The update functions thread an
    explicit CRC state so checksums can be computed incrementally across
    scattered buffer windows. *)

val init : int
(** Initial CRC state (0xFFFF). *)

val update_fast : int -> bytes -> off:int -> len:int -> int
(** Fold [len] bytes at [off] into the given state, slicing-by-4 (4
    bytes per iteration). *)

val digest : bytes -> off:int -> len:int -> int
(** The table-driven checksum of [len] bytes at [off], from {!init}. *)

module Reference : sig
  val update : int -> bytes -> off:int -> len:int -> int

  val digest : bytes -> off:int -> len:int -> int
  (** Bit-at-a-time oracle — the definition the tables are derived
      from and property-tested against. *)
end
