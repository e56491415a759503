(** SHA-256 / HMAC-SHA256 hardware digest engine.

    Models the accelerators root-of-trust chips expose: data is fed in
    DMA-sized chunks, each costing wire/engine cycles, and the final
    digest arrives via interrupt. This asynchrony is what forced Tock's
    process loading to become a state machine (paper §3.4): even
    *checking a credential* requires split-phase operations. *)

type t

val create : Sim.t -> Irq.t -> irq_line:int -> cycles_per_block:int -> t

val set_mode_sha256 : t -> (unit, string) result
(** Plain digest mode. Fails if an operation is mid-flight. *)

val set_mode_hmac : t -> key:bytes -> (unit, string) result

val add_data : t -> bytes -> off:int -> len:int -> (unit, string) result
(** Feed a chunk; completion of the *chunk* is signalled via
    [set_data_client]. Only one chunk may be in flight. *)

val run : t -> (unit, string) result
(** Finalize; the digest arrives via [set_digest_client]. *)

val set_data_client : t -> (unit -> unit) -> unit

val set_digest_client : t -> (bytes -> unit) -> unit
