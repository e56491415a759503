(** AES-128 (FIPS 197), implemented from scratch.

    The S-box is derived programmatically from the GF(2^8) inverse and the
    affine transform, so there is no hand-typed table to get wrong. The
    block cipher itself runs on T-tables (four 256-entry word tables per
    direction, derived at module init from the same S-box), with the
    byte-wise textbook rounds retained under {!Reference} as the oracle
    the property tests compare against. Provides the raw block cipher plus
    ECB and CTR helpers; the simulated AES hardware engine wraps these with
    DMA timing. *)

type key
(** An expanded 128-bit key schedule. *)

val expand_key : bytes -> key
(** [expand_key k] expects exactly 16 key bytes. *)

val encrypt_block : key -> bytes -> off:int -> bytes
(** Encrypt the 16-byte block at [off]; returns a fresh 16-byte block.
    T-table fast path. *)

val decrypt_block : key -> bytes -> off:int -> bytes

(** Byte-wise textbook rounds (SubBytes/ShiftRows/MixColumns over a
    16-byte state array) — kept as the equivalence oracle for the T-table
    kernels, and for measuring the fast path's speedup. *)
module Reference : sig
  val encrypt_block : key -> bytes -> off:int -> bytes

  val decrypt_block : key -> bytes -> off:int -> bytes
end

val ecb_encrypt : key -> bytes -> bytes
(** Whole-buffer ECB; the input length must be a multiple of 16. *)

val ecb_decrypt : key -> bytes -> bytes

val ctr_transform : key -> nonce:bytes -> bytes -> bytes
(** CTR mode keystream XOR (encryption and decryption are the same
    operation). [nonce] is 16 bytes used as the initial counter block; the
    counter occupies the last 4 bytes, big-endian. Any input length. *)
