(** NVIC-style interrupt controller.

    Peripherals assert lines by number; the kernel polls {!has_pending}
    from its main loop and calls {!service} to run the registered top-half
    handlers, mirroring how Tock chips dispatch from the interrupt vector
    into peripheral [handle_interrupt] code. Lines latched while disabled
    stay pending until enabled. *)

type t

val create : ?lines:int -> Sim.t -> t
(** Default 64 lines. *)

val register : t -> line:int -> name:string -> (unit -> unit) -> unit
(** Install the top-half handler for a line. At most one handler per line;
    re-registering replaces it. *)

val set_pending : t -> line:int -> unit
(** Assert a line (idempotent while already pending). *)

val enable : t -> line:int -> unit

val has_pending : t -> bool
(** True if any enabled line is pending. *)

val service : t -> int
(** Run handlers for all enabled pending lines (lowest number first),
    clearing each line before its handler runs. Lines re-asserted during a
    handler are serviced in the same call. Returns the number of handler
    invocations. *)
