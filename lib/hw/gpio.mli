(** GPIO bank with edge interrupts, plus LED and button helpers.

    Pins are inputs or outputs; input pins are driven by the environment
    (tests, button models) via {!drive}, and can latch edge interrupts
    that fire a per-pin client from the bank's interrupt line. *)

type t

type mode = Input | Output

type edge = Rising | Falling | Either

val create : Sim.t -> Irq.t -> irq_line:int -> pins:int -> t

val set_mode : t -> pin:int -> mode -> unit

(** {2 Output side} *)

val set : t -> pin:int -> bool -> unit
(** Drive an output pin. Ignored (with a trace note) on input pins. *)

(** {2 Input side} *)

val read : t -> pin:int -> bool

val drive : t -> pin:int -> bool -> unit
(** Environment-side: set the level seen by an input pin, possibly
    latching an edge interrupt. *)

val enable_interrupt : t -> pin:int -> edge -> unit

val disable_interrupt : t -> pin:int -> unit

val set_pin_client : t -> pin:int -> (bool -> unit) -> unit
(** [client level] runs from interrupt context on a latched edge. *)

(** {2 LED helper} *)

module Led : sig
  type led

  val attach : t -> pin:int -> active_high:bool -> led
  (** Claims the pin as an output. *)

  val on : led -> unit

  val toggle : led -> unit

  val is_lit : led -> bool

  val transitions : led -> int
  (** Number of on/off changes, for blink tests. *)
end

(** {2 Button helper} *)

module Button : sig
  type button

  val attach : t -> pin:int -> active_high:bool -> button
  (** Claims the pin as an input. *)

  val press : button -> unit
  (** Environment-side press (drives the pin). *)

  val is_pressed : button -> bool
end
