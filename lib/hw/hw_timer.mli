(** Free-running hardware counter with one compare (alarm) channel.

    The counter is 32 bits wide and wraps, exactly like the SAM4L AST or
    nRF RTC that Tock targets — the wrap is what makes alarm arithmetic
    subtle (paper §5.4). Ticks are derived from the simulation cycle clock
    through a divider, so different chips expose different tick
    frequencies over the same CPU clock.

    Semantics follow Tock's [hil::time::Alarm]: {!set_alarm} [~reference
    ~dt] fires when [now - reference >= dt] in wrapping arithmetic. An
    alarm whose deadline already passed fires on the next tick. Firing
    asserts the timer's interrupt line; the registered client runs from
    the interrupt top half. *)

type t

val create :
  Sim.t -> Irq.t -> irq_line:int -> cycles_per_tick:int -> t

val frequency_hz : t -> int
(** Ticks per second given the sim clock. *)

val now_ticks : t -> int
(** Current 32-bit counter value. *)

val set_client : t -> (unit -> unit) -> unit
(** Called (from interrupt context) when the alarm fires. *)

val set_alarm : t -> reference:int -> dt:int -> unit
(** Arm the alarm per Tock semantics; re-arming replaces the previous
    alarm. [reference] and [dt] are 32-bit tick values. *)

val disarm : t -> unit

val is_armed : t -> bool

val registers : t -> Mmio.map
(** The MMIO view (VALUE read-only, COMPARE/CTRL read-write) backing this
    timer, for register-level tests. *)

(** Wrapping 32-bit deadline test. *)

val expired : reference:int -> dt:int -> now:int -> bool
(** [now - reference >= dt] in wrapping arithmetic. *)
