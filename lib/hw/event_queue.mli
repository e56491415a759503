(** Time-ordered future-event queue (4-ary min-heap, lazy cancellation
    with compaction once cancelled entries dominate).

    The simulation's single source of asynchrony: peripherals schedule
    completion events here and the clock only ever advances to event
    deadlines or by explicit CPU work. Events at the same cycle fire in
    insertion order (FIFO), which keeps runs deterministic. A fleet
    domain also parks its board witnesses in one, by wake. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> t

val schedule : t -> time:int -> (unit -> unit) -> handle
(** [schedule q ~time f] runs [f] when the clock reaches [time]. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val next_time : t -> int option
(** Deadline of the earliest live event, if any. *)

val next_deadline : t -> int
(** Like {!next_time} but allocation-free: [max_int] when empty. *)

val pop_due : t -> now:int -> (unit -> unit) option
(** Remove and return the earliest event with [time <= now]. *)

val run_due : t -> now:int -> int
(** Pop and run every event with [time <= now] in deadline order,
    allocation-free (the hot path under {!Sim.spend}). Events fired may
    schedule further events; those are run too if already due. Returns
    the number of events fired. *)

val is_empty : t -> bool

val size : t -> int
(** Number of live (non-cancelled) events. *)

val live_times : t -> (int * int) array
(** (deadline, sequence) of every live event, sorted — the queue's
    observable schedule, used as a state witness by board snapshots.
    Sequence numbers are the global FIFO tiebreaks, so two queues with
    equal [live_times] arose from the same schedule/cancel history of
    still-pending events. *)
