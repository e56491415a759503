(** UART virtualizer: shares one UART among several kernel clients
    (console driver, process console, debug writer).

    Transmit requests queue in arrival order; each virtual device owns at
    most one in-flight buffer (held by the mux until its completion
    callback returns it — the ownership-passing protocol of paper §4.2).
    Receive is exclusive: one device may hold the receive side at a time. *)

type t

type vdev

val create : Tock.Hil.uart -> t

val new_device : t -> vdev

val transmit : vdev -> Tock.Subslice.t -> (unit, Tock.Error.t * Tock.Subslice.t) result
(** BUSY if this device already has a transmit queued or in flight. *)

val set_transmit_client : vdev -> (Tock.Subslice.t -> unit) -> unit

val receive : vdev -> Tock.Subslice.t -> (unit, Tock.Error.t * Tock.Subslice.t) result
(** BUSY if any device holds the receive side. *)

val set_receive_client :
  vdev -> (Tock.Subslice.t -> (unit, Tock.Error.t) result -> unit) -> unit
(** The buffer comes back with [Ok ()] when filled, or with
    [Error CANCEL] when [abort_receive] ended the receive. *)

val abort_receive : vdev -> unit
(** End this device's receive, if it holds the receive side: its
    receive client is called once, later, with the buffer and
    [Error CANCEL]; until then the device keeps the receive side. *)
