(** SHA-256 / HMAC-SHA256 hardware digest engine.

    Models the accelerators root-of-trust chips expose: data is fed in
    DMA-sized chunks, each costing wire/engine cycles, and the final
    digest arrives via interrupt. This asynchrony is what forced Tock's
    process loading to become a state machine (paper §3.4): even
    *checking a credential* requires split-phase operations. *)

type t

val create : Sim.t -> Irq.t -> irq_line:int -> cycles_per_block:int -> t

val set_mode_sha256 : t -> (unit, Completion.refusal) result
(** Plain digest mode. Fails if an operation is mid-flight. *)

val set_mode_hmac : t -> key:bytes -> (unit, Completion.refusal) result

type completion = Data_done | Digest_done of bytes

val add_data : t -> bytes -> off:int -> len:int -> (unit, Completion.refusal) result
(** Feed a chunk; the client sees [Data_done] when the *chunk* is
    absorbed. Only one chunk may be in flight. *)

val run : t -> (unit, Completion.refusal) result
(** Finalize; the client sees [Digest_done digest]. *)

val set_client : t -> (completion -> unit) -> unit
(** Completion callback (interrupt context). *)
