(** SHA-256 (FIPS 180-4), implemented from scratch.

    Provides both a streaming interface (used by the simulated hardware
    digest engine, which feeds data in DMA-sized chunks) and one-shot
    helpers. The digest is always 32 bytes. *)

type t
(** A streaming hash context. *)

val init : unit -> t

val copy : t -> t
(** An independent context in the same state: a midstate to resume from
    any number of times (HMAC keeps its key's two this way). *)

val feed : t -> bytes -> off:int -> len:int -> unit
(** Absorb [len] bytes of [b] starting at [off]. May be called repeatedly. *)

val finalize : t -> bytes
(** Pad, finish, and return the 32-byte digest. The context must not be
    used afterwards. *)

val digest_bytes : bytes -> bytes
(** One-shot digest of a whole buffer. *)

val digest_string : string -> bytes

val compress : t -> bytes -> off:int -> unit
(** Run the (unrolled) compression function over one 64-byte block at
    [off], updating the chaining state in place. Exposed so the
    [datapath] bench and the equivalence tests can drive the gated
    primitive directly; normal callers use {!feed}/{!finalize}. *)

(** One-shot digests over the byte-wise textbook compression function —
    the oracle the unrolled fast path is property-tested against, and the
    baseline its speedup is measured from. *)
module Reference : sig
  val digest_bytes : bytes -> bytes

  val digest_string : string -> bytes

  val compress : t -> bytes -> off:int -> unit
  (** Per-block textbook compression on the same context type — the
      denominator of the [datapath] speedup gate. *)
end

val hex : bytes -> string
(** Lowercase hexadecimal rendering of a digest (or any byte string). *)
