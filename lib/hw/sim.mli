(** The simulation context: cycle clock, event queue, power accounting.

    One [Sim.t] models one shared clock domain — typically one board, or
    several boards joined by a radio medium. All peripherals and the kernel
    reference the same context; nothing in the simulation uses wall-clock
    time, so every run is deterministic given the seed.

    Time is counted in CPU cycles. The clock advances in exactly two ways:
    - {!spend}: the CPU is busy for [n] cycles (kernel, capsule, or process
      work); and
    - {!sleep_until}/{!advance_to_next_event}: the CPU sleeps until a
      hardware event is due, which is how the "asynchronous all the way
      down" design earns its power savings (paper §2.5).

    Power: components register {!meter}s declaring their instantaneous
    current draw; the context integrates µA·cycles per meter so experiments
    can report energy splits (used by the Signpost example and the
    [e-async-sleep] bench). *)

type t

type meter
(** A registered power consumer. *)

val create : ?seed:int64 -> ?clock_hz:int -> ?trace_capacity:int -> unit -> t
(** Default clock: 16 MHz. The seed feeds every PRNG derived from this
    context. [trace_capacity] bounds the trace ring (default 1024);
    [0] disables tracing entirely. *)

val now : t -> int
(** Current time in cycles since boot. *)

val clock_hz : t -> int

val rng : t -> Tock_crypto.Prng.t
(** The context's root PRNG. Subsystems should {!Tock_crypto.Prng.split}
    their own stream off it at construction time. *)

(** {2 Time} *)

val spend : t -> int -> unit
(** Busy-spin the CPU for [n >= 0] cycles (counted as active time). *)

val at : t -> delay:int -> (unit -> unit) -> Event_queue.handle
(** Schedule a callback [delay] cycles from now ([delay >= 0]). *)

val cancel : t -> Event_queue.handle -> unit

val run_due_events : t -> bool
(** Fire all events due at or before the current time, in order. Returns
    true if at least one fired. *)

val event_times : t -> (int * int) array
(** (deadline, sequence) of every live pending event, sorted — see
    {!Event_queue.live_times}. A board-state witness component. *)

val next_deadline : t -> int
(** Deadline of the earliest pending event, [max_int] when the queue is
    empty; allocation-free ({!Event_queue.next_deadline}). An idle
    kernel sleeps to it and reports it as the wake a fleet board parks on. *)

val advance_to_next_event : t -> bool
(** Sleep (CPU idle) until the next event deadline and fire the events due
    then. Returns false if no event is pending (clock unchanged). *)

val sleep_until : t -> int -> unit
(** Sleep until an absolute cycle time (no-op if already past). Events due
    in the interval fire at their deadlines. *)

(** {2 Statistics} *)

val active_cycles : t -> int

val sleep_cycles : t -> int

(** {2 Snapshot thaw support} *)

val warp :
  t -> now:int -> active_cycles:int -> sleep_cycles:int -> rng_state:int64 -> unit
(** Re-establish an exact clock position (cycle counters and root-PRNG
    stream included) without the move counting as activity or sleep.
    Used by {!Tock.Kernel.thaw} to land a rehydrated board on its frozen
    clock; pending events keep their absolute deadlines. *)

val rng_state : t -> int64
(** Raw root-PRNG state, for the board-state witness. *)

(** {2 Power metering} *)

val meter : t -> name:string -> meter
(** Register a consumer, initially drawing 0 µA. *)

val meter_set_ua : t -> meter -> int -> unit
(** Set the consumer's instantaneous current draw in µA. *)

val energy_report : t -> (string * float) list
(** [(name, microjoules)] per meter, assuming a 3.3 V supply, integrated
    up to the current time. *)

val total_microjoules : t -> float

(** {2 Observability}

    The context owns one structured trace buffer and one hardware-side
    metrics registry (see {!Tock_obs}); kernels layer their own registry
    on top. *)

val trace_events : t -> Tock_obs.Trace.t
(** The context's trace ring, read by exporters. Hardware models note
    into it with {!Tock_obs.Trace.note}, guarded by
    {!Tock_obs.Trace.on}. *)

val metrics : t -> Tock_obs.Metrics.t
(** The hardware-side metrics registry (IRQ latency, timer fires, trace
    drop gauges). Kernel-side series live in {!Tock.Kernel.metrics}. *)
