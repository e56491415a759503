(** UART peripheral with DMA-style asynchronous transfer completion.

    Software starts a whole-buffer transmit or receive; the peripheral
    completes it after the wire time implied by the configured baud rate
    and asserts its interrupt line. This is the split-phase contract Tock's
    [hil::uart] expects, and the console stack (UART mux capsule → console
    capsule → process printing) is layered on top of it.

    The "outside world" ends of the wire are a [tx_sink] callback (where
    transmitted bytes go — a test harness or the host terminal) and
    {!rx_inject} (bytes arriving from outside). *)

type t

type parity = No_parity | Even | Odd

val create :
  Sim.t -> Irq.t -> irq_line:int -> name:string -> t
(** Starts configured at 115200 baud. *)

val configure :
  t -> baud:int -> parity:parity -> stop_bits:int -> (unit, string) result
(** Rejects baud rates outside [300, 4_000_000]. *)

val cycles_per_byte : t -> int

(** {2 Host / environment side} *)

val set_tx_sink : t -> (bytes -> unit) -> unit
(** Receives a copy of each completed transmit buffer. *)

val rx_inject : t -> bytes -> unit
(** Push bytes from the outside world into the receive path. Bytes beyond
    the 64-byte hardware FIFO (when no receive is pending) are dropped and
    counted in {!overruns}. *)

val overruns : t -> int

(** {2 Driver side (split-phase)} *)

val transmit : t -> bytes -> len:int -> (unit, Completion.refusal) result
(** [transmit_segs] of the buffer's first [len] bytes. *)

val transmit_segs : t -> (bytes * int * int) list -> (unit, Completion.refusal) result
(** Scatter-gather transmit: the [(buf, off, len)] segments are
    serialized back to back into the shift-register latch and clocked
    out as one operation — one completion callback for the whole batch,
    with [len] = total bytes. [Invalid] on a malformed segment, [Busy]
    if a transmit is in flight. *)

val set_transmit_client : t -> (len:int -> unit) -> unit
(** Runs from interrupt context when a transmit completes. *)

val receive : t -> len:int -> (unit, Completion.refusal) result
(** Begin receiving exactly [len] bytes. [Busy] from an accepted
    receive until its client call begins, also once it is aborted. *)

val set_receive_client : t -> (bytes option -> unit) -> unit
(** Runs from interrupt context with the received bytes, or with
    [None] for an aborted receive. *)

val abort_receive : t -> unit
(** End the receive, if any, early: its pending completion is cancelled
    and the line raised, so its one client call, [None], comes from the
    top half, never from inside this call. Bytes it already took from
    the FIFO are dropped, the rest stay. *)

val tx_busy : t -> bool
(** From an accepted transmit until the top half takes its completion. *)
