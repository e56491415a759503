(** Fixed-capacity ring of fixed-width int records.

    Each entry is [width] ints stored in place in one int array. The
    array starts empty and doubles when full, up to [capacity] entries,
    so a queue that only ever holds a few entries stays small; once it
    has grown to its working depth, pushing, reading and removing an
    entry allocate nothing. Overflow at [capacity] drops the *new*
    entry and counts it, matching Tock's queue behaviour. Backs the
    per-process upcall queue. *)

type t

val create : capacity:int -> width:int -> t
(** Holds up to [capacity] entries of [width] ints each. *)

val length : t -> int
(** Entries queued. *)

val push : t -> int
(** Append an entry and return the offset of its first int in {!data};
    the caller writes its [width] ints there. [-1] (and counts a drop)
    if full. *)

val data : t -> int array
(** The backing array: entry [i] (oldest first) is the [width] ints
    from [offset t i]. A {!push} may replace it. *)

val offset : t -> int -> int
(** Offset in {!data} of the [i]th oldest entry, [i < length t]. *)

val find : t -> int -> int -> int
(** Index of the oldest entry whose first two ints are [a] and [b], or
    [-1]. Needs [width >= 2]. *)

val remove : t -> int -> unit
(** Remove the [i]th oldest entry; the others keep their order. *)

val drops : t -> int

val set_drops : t -> int -> unit
(** Re-establish the drop counter from a board witness (freeze/thaw
    support; never used on live queues). *)

val clear : t -> unit
(** Empty the ring; the drop counter stays. *)

(** Fixed-capacity byte ring with bulk transfers: the entry ring above
    moves one entry per call, this one moves whole spans (at most two
    blits each way, for the wrap), so a producer can batch many small
    writes into one hardware operation on drain. *)
module Bytes_ring : sig
  type t

  val create : capacity:int -> t

  val length : t -> int
  (** Bytes queued. *)

  val free : t -> int

  val is_empty : t -> bool

  val push_slice : t -> bytes -> pos:int -> len:int -> int
  (** Append up to [len] bytes from [src.(pos ..)]; returns the count
      accepted. Overflow is dropped-new and counted per byte. *)

  val push_string : t -> string -> int

  val pop_into : t -> Subslice.t -> int
  (** Drain up to the window's length into it (from offset 0); returns
      the count drained. *)

  val dropped : t -> int
  (** Bytes lost to overflow. *)
end
