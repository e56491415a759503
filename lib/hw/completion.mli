(** A peripheral's single in-flight split-phase operation.

    Tock hardware is asynchronous all the way down (paper §2.5): an
    operation is started by a call and finished by an interrupt that
    hands one result to one client. This module is that contract, once,
    for every engine with one operation in flight: the busy flag, the
    result waiting for the top half, the client and the interrupt line.

    [start] schedules one {!Sim.at} event; when it fires, the result is
    computed and stored and the line is raised. The top half clears the
    result and busy before it calls the client, so a client may start
    the next operation from inside its callback.

    Every split-phase op of every engine either starts ([Ok ()], then
    exactly one client call) or is refused and schedules nothing, and
    until that client call begins a second op is refused [Busy]. It
    consumes or latches its input before [start] returns (bytes used at
    completion are copied at start through {!gather}), so the caller may
    reuse its buffer as soon as the call returns. *)

type refusal = Busy of string | Invalid of string | Size of string
(** Why an op did not start, with the engine's own text: one is in
    flight, the request is malformed, or it is more than the device takes. *)

val text : refusal -> string

type 'a t

val create : Sim.t -> Irq.t -> line:int -> name:string -> 'a t
(** Register and enable [line]'s top half under [name] (its metrics
    series is [irq.<name>.serviced]). *)

val busy : 'a t -> bool
(** From {!start} until the top half takes the result. *)

val set_client : 'a t -> ('a -> unit) -> unit
(** The completion callback (interrupt context). *)

val start : 'a t -> delay:int -> (unit -> 'a) -> (unit, refusal) result
(** Mark busy and complete [delay] cycles from now; the thunk runs at
    completion. A result known at start is captured by the thunk.
    Always [Ok ()]: callers check {!busy} first. *)

val gather : (bytes * int * int) list -> bytes option
(** The DMA latch copy: serialize the [(buf, off, len)] segments back to
    back into one fresh buffer, or [None] if a segment is malformed. *)
