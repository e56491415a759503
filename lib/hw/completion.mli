(** A peripheral's single in-flight split-phase operation.

    Tock hardware is asynchronous all the way down (paper §2.5): an
    operation is started by a call and finished by an interrupt that
    hands one result to one client. This module is that contract, once,
    for every engine with one operation in flight: the busy flag, the
    result waiting for the top half, the client and the interrupt line.

    [start] schedules one {!Sim.at} event; when it fires, busy clears,
    the result is computed and stored, and the line is raised. The top
    half clears the stored result before it calls the client, so a
    client may start the next operation from inside its callback. *)

type 'a t

val create : Sim.t -> Irq.t -> line:int -> name:string -> 'a t
(** Register and enable [line]'s top half under [name] (its metrics
    series is [irq.<name>.serviced]). *)

val busy : 'a t -> bool

val set_client : 'a t -> ('a -> unit) -> unit
(** The completion callback (interrupt context). *)

val start : 'a t -> delay:int -> (unit -> 'a) -> (unit, 'e) result
(** Mark busy and complete [delay] cycles from now; the thunk runs at
    completion. A result known at start is captured by the thunk.
    Always [Ok ()]: callers check {!busy} first. *)

val gather : (bytes * int * int) list -> bytes option
(** The DMA latch copy: serialize the [(buf, off, len)] segments back to
    back into one fresh buffer, or [None] if a segment is malformed. *)
