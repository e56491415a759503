(** Process schedulers.

    Tock ships multiple scheduler implementations behind one trait; the
    kernel main loop asks for a decision over the currently runnable
    processes and reports back how the chosen process used its timeslice.
    Four policies are provided:

    - {!round_robin}: fixed timeslice, fair rotation (Tock's default);
    - {!cooperative}: no preemption (timeslice = none);
    - {!priority}: strict priority by process index (lowest wins);
    - {!mlfq}: multi-level feedback queue — CPU hogs sink to longer,
      lower-priority slices; interactive processes stay responsive.

    Schedulers see only process handles, never kernel internals. The
    kernel asks for a decision on every loop iteration, so a decision
    allocates nothing: the kernel passes its one reusable buffer of
    runnable processes, already in ascending id order, and gets back an
    index. *)

type usage =
  | Used_full_slice  (** preempted by fuel exhaustion *)
  | Yielded_early    (** blocked or yielded with fuel remaining *)

type t = {
  sched_name : string;
  next : Process.t array -> int -> int;
      (** [next runnable n] picks one of [runnable.(0) .. runnable.(n-1)],
          which are in ascending id order, and returns its index; -1
          (idle) iff [n = 0]. *)
  timeslice : Process.t -> int option;
      (** The slice of the process [next] just picked; [None] = run to
          block (cooperative). *)
  charge : Process.t -> usage -> unit;
      (** Feedback after the slice. *)
}

val round_robin : ?timeslice:int -> unit -> t
(** Default timeslice: 10_000 cycles. *)

val cooperative : unit -> t

val priority : unit -> t

val mlfq : ?levels:int -> ?base_slice:int -> ?boost_every:int -> unit -> t
(** Default: 3 levels, 5_000-cycle base slice (doubling per level), and a
    priority boost resetting all processes to the top level every 100
    decisions. *)
