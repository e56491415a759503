(** Analog-to-digital converter: multi-channel, single-conversion, with a
    conversion delay and interrupt completion (SAM4L ADCIFE style).

    Channel inputs are driven by environment functions of simulated time
    (like {!Sensors}), producing 12-bit samples. *)

type t

val create :
  Sim.t -> Irq.t -> irq_line:int -> channels:(int -> int) array ->
  cycles_per_sample:int -> t
(** [channels.(i)] maps sim time to the channel's voltage as a 12-bit
    value (clamped). *)

val channel_count : t -> int

val sample : t -> channel:int -> (unit, Completion.refusal) result
(** Start a conversion; [Busy] while one is in flight, [Invalid] for a
    bad channel. *)

val set_client : t -> (channel:int -> value:int -> unit) -> unit
