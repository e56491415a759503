(** SubSlice: a resizable window over a buffer (paper §4.2, Fig. 4).

    Split-phase kernel APIs pass whole-buffer ownership down driver
    stacks; each layer may need to operate on a *subset* (a packet
    payload, the bytes still to write) without forfeiting the rest of the
    buffer. A [Subslice.t] carries the full underlying buffer plus an
    active window; layers narrow the window with {!slice} and any holder
    can {!reset} back to the *base* window before returning it upward.

    The base window is fixed at construction: for {!of_bytes} it is the
    whole buffer, for {!of_bytes_window} an arbitrary range. This is how
    allowed process buffers stay sound when handed out zero-copy — a
    capsule holding a window over process RAM can narrow and reset at
    will but can never widen past the range the process allowed (§5.1).

    All indexed operations are window-relative and bounds-checked against
    the window, so a layer cannot reach bytes outside the range it was
    given (Tock gets this from slice types; we check dynamically and the
    invariant is property-tested).

    Every operation that copies window bytes between buffers is counted
    in module-wide copy counters; the iopath bench asserts these stay at
    0 across the zero-copy fast paths. *)

type t

val of_bytes : bytes -> t
(** Base window = entire buffer. The buffer is shared, not copied
    (ownership moves with the value, as in Tock). *)

val of_bytes_window : bytes -> pos:int -> len:int -> t
(** Base window = [pos, pos+len) of [buf]. {!reset} restores to this
    range, never the whole buffer. Raises [Invalid_argument] if the
    range is outside the buffer. *)

val create : int -> t
(** Fresh zeroed buffer of the given size. *)

val clone : t -> t
(** A new independent window record over the *same* bytes (no copy):
    same base, same current window, but narrowing/resetting the clone
    does not disturb the original. This is how capsules hold an allowed
    window across split-phase operations. *)

val length : t -> int
(** Active window length. *)

val slice : t -> pos:int -> len:int -> unit
(** Narrow the window to [pos, pos+len) *relative to the current window*.
    Raises [Invalid_argument] if outside the current window. *)

val slice_from : t -> int -> unit

val slice_to : t -> int -> unit

val reset : t -> unit
(** Restore the window to the base window. *)

val get : t -> int -> char

val set : t -> int -> char -> unit

val get_u8 : t -> int -> int

val set_u8 : t -> int -> int -> unit

val blit_from_bytes : src:bytes -> src_off:int -> t -> dst_off:int -> len:int -> unit

val blit_to_bytes : t -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit

val copy_within : t -> t -> unit
(** Copy [min (length src) (length dst)] bytes between windows. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Window-relative copy between two subslices, bounds-checked against
    both windows. This is the safe way to move bytes between buffers a
    layer only holds windows into — unlike {!underlying}, it cannot
    reach outside either window. *)

val to_bytes : t -> bytes
(** Copy of the active window. *)

val window : t -> int * int
(** (absolute offset, length) of the window in the underlying buffer. *)

val underlying : t -> bytes
(** The raw buffer — for trusted code (DMA models) only. *)

val fill : t -> char -> unit
(** Fill the active window. *)

(** {2 Copy accounting}

    A module-wide counter over {!blit_from_bytes}, {!blit_to_bytes},
    {!copy_within}, {!blit} and {!to_bytes}. Zero-length operations do
    not count. *)

val copy_count : unit -> int
(** Copies performed since the program started. *)
