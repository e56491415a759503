(** Public-key engine: asynchronous signature verification.

    Stands in for the big-number accelerators (e.g. OpenTitan's OTBN)
    that root-of-trust chips use for credential checking. Verification of
    one signature takes many cycles — far longer than a digest — which is
    precisely why Tock's process loading had to become an asynchronous
    state machine (paper §3.4). The signature scheme is the toy Schnorr
    from [lib/crypto] (see the substitution note there). *)

type t

val create : Sim.t -> Irq.t -> irq_line:int -> cycles_per_verify:int -> t

val verify :
  t ->
  pk:Tock_crypto.Schnorr.public_key ->
  msg:bytes ->
  signature:Tock_crypto.Schnorr.signature ->
  (unit, Completion.refusal) result
(** Start a verification; the boolean verdict arrives via the client. *)

val set_client : t -> (bool -> unit) -> unit
