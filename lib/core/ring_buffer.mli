(** Fixed-capacity ring buffer (no heap growth — Tock is heapless).

    Backs per-process upcall queues and the console; overflow drops the
    *new* element and counts it, matching Tock's queue behaviour. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [dummy] fills unused slots (never returned). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> bool
(** False (and counts a drop) if full. *)

val pop : 'a t -> 'a option

val peek : 'a t -> 'a option

val drops : 'a t -> int

val set_drops : 'a t -> int -> unit
(** Re-establish the drop counter from a board witness (freeze/thaw
    support; never used on live queues). *)

val clear : 'a t -> unit

val iter : 'a t -> ('a -> unit) -> unit
(** Oldest first; does not consume. *)

val find_remove : 'a t -> ('a -> bool) -> 'a option
(** Remove and return the first (oldest) matching element, preserving the
    order of the rest. Used by yield-waitfor to pluck a matching upcall
    out of the queue. *)

(** Fixed-capacity byte ring with bulk transfers: the element ring above
    moves one value per call, this one moves whole spans (at most two
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
