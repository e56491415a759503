(** Structured trace events: a bounded, allocation-free ring of typed
    begin/end spans and instants with a Chrome trace-event JSON exporter
    (chrome://tracing / Perfetto loadable) and a plain-text timeline.

    Timestamps are simulation cycles supplied by the caller — the trace
    layer never reads or advances the clock, so instrumentation cannot
    perturb simulated time. tid -1 is kernel/hardware context; a
    process's tid is its pid. When the ring wraps, the oldest events are
    dropped and counted; both exporters report the drop count in their
    metadata instead of losing history silently. *)

type kind =
  | Syscall  (** span around one syscall dispatch; arg = class number *)
  | Irq_raise  (** instant: line asserted; arg = line, text = name *)
  | Irq_dispatch  (** instant: handler ran; arg = line, text = name *)
  | Grant_enter  (** instant; arg = grant id, text = grant name *)
  | Alarm_fire  (** instant; arg = virtual alarms fired / compare value *)
  | Mpu_check  (** instant, slow path only; text = access kind *)
  | Schedule  (** span around one process timeslice; text = name *)
  | Sleep  (** span: CPU in deep sleep awaiting a hardware event *)
  | Upcall  (** instant: upcall delivered; arg = driver number *)
  | Note  (** free-text line, recorded by {!note} *)
  | Fault  (** instant: a process faulted; text = reason *)
  | Dispatch
      (** fleet scheduler: one calendar dispatch quantum; arg = first
          board index of the group *)
  | Park  (** fleet scheduler instant: board frozen; arg = board *)
  | Resume  (** fleet scheduler instant: board thawed; arg = board *)
  | Fast_forward
      (** fleet scheduler: a fully-asleep group warped over its gap;
          arg = board, duration = cycles skipped *)

type phase =
  | Begin
  | End
  | Instant
  | Complete
      (** a span carried as one event with an explicit duration
          ([e_dur]); used where Begin/End pairs cannot nest sanely,
          e.g. fleet dispatch quanta interleaved across groups *)

type event = {
  mutable e_ts : int;  (** cycles *)
  mutable e_tid : int;  (** pid, or -1 for kernel/hardware *)
  mutable e_kind : kind;
  mutable e_phase : phase;
  mutable e_dur : int;  (** cycles; only meaningful for [Complete] *)
  mutable e_arg : int;
  mutable e_text : string;
}

type t

val create : capacity:int -> t
(** [capacity = 0] disables recording entirely: {!on} is false and
    {!emit} is a no-op. *)

val on : t -> bool
(** True when events are being recorded. Hot paths guard the [emit]
    call (and any label construction) behind this. *)

val total : t -> int
(** Events ever emitted, including dropped ones. *)

val retained : t -> int

val dropped : t -> int
(** Events lost to ring wrap-around. *)

val emit :
  t -> ts:int -> tid:int -> kind -> phase -> arg:int -> text:string -> unit
(** Record one event in place. Disabled mode is one field load and one
    branch — no allocation, no ring access (the write body is a
    separate non-inlined function reached only when recording). *)

val emit_complete :
  t -> ts:int -> dur:int -> tid:int -> kind -> arg:int -> text:string -> unit
(** Record a [Complete] span: a self-contained event carrying its own
    duration in cycles. Same disabled-mode cost contract as {!emit}. *)

val note : t -> ts:int -> string -> unit
(** [emit] shorthand for free-text kernel notes (tid -1). *)

val iter : t -> (event -> unit) -> unit
(** Oldest-first over retained events. The callback sees the live
    (reused) record: read fields, do not stash the record itself. *)

val kind_name : kind -> string

val label : event -> string
(** Human label; [Note] events render as their exact text. *)

val to_text : clock_hz:int -> t -> string
(** Timestamp-sorted text timeline, one line per event, with a header
    line when events were dropped. *)

val escape : string -> string
(** The body of a JSON string: quotes, backslashes and control bytes
    escaped (newline as [\n], the others as [\u00XX]), every other
    byte — UTF-8 included — kept as it is. The one escape of every JSON
    renderer in this library. *)

type lane = {
  lane_pid : int;  (** Chrome pid; one horizontal track group *)
  lane_name : string;  (** process_name metadata for the lane *)
  lane_tids : (int * string) list;
      (** raw tid -> thread name (-1 = kernel); shifted +1 on export *)
  lane_trace : t;
}

val to_chrome_json_lanes : clock_hz:int -> lane list -> string
(** Multi-lane Chrome trace-event JSON: one pid lane per entry (the
    fleet export puts each scheduler domain and each sampled board in
    its own lane). Events within a lane are timestamp-sorted;
    [otherData] carries the summed drop/total counts. *)

val to_chrome_json :
  ?pid:int ->
  ?process_name:string ->
  ?tid_names:(int * string) list ->
  clock_hz:int ->
  t ->
  string
(** Chrome trace-event JSON (object format). [pid] is the board,
    [tid_names] maps raw tids (-1 = kernel) to thread names; tids are
    shifted by +1 on export so the kernel's -1 becomes thread 0. [ts]
    is microseconds derived from [clock_hz]; [otherData] carries
    [clock_hz], [dropped_events] and [total_events]. Equivalent to
    {!to_chrome_json_lanes} with a single lane. *)
