(** True random number generator peripheral.

    Produces 32-bit entropy words after a conversion delay, delivered via
    interrupt — the asynchronous contract of Tock's [hil::entropy]. The
    entropy itself comes from the simulation's deterministic PRNG so runs
    are reproducible. *)

type t

val create : Sim.t -> Irq.t -> irq_line:int -> cycles_per_word:int -> t

val request : t -> count:int -> (unit, Completion.refusal) result
(** Ask for [count] 32-bit words; [Busy] if a request is outstanding. *)

val set_client : t -> (int array -> unit) -> unit
(** Delivery callback (interrupt context). *)
