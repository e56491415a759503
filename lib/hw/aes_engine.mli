(** AES-128 hardware engine (CTR and ECB), DMA-style and interrupt-driven,
    per Tock's [hil::symmetric_encryption]. *)

type t

type aes_mode = Ctr | Ecb_encrypt | Ecb_decrypt

val create : Sim.t -> Irq.t -> irq_line:int -> cycles_per_block:int -> t

val set_key : t -> bytes -> (unit, Completion.refusal) result
(** 16-byte key. [Busy] mid-operation. *)

val set_iv : t -> bytes -> (unit, Completion.refusal) result
(** 16-byte IV/counter block (CTR mode only). *)

val crypt :
  t -> mode:aes_mode -> src:bytes -> off:int -> len:int -> (unit, Completion.refusal) result
(** Transform [len] bytes; ECB modes require a multiple of 16. Result via
    the client callback. *)

val set_client : t -> (bytes -> unit) -> unit
