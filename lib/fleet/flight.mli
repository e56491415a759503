(** Fault flight recorder artifacts ([TCKFLT02]).

    A self-contained postmortem dump captured when a fleet board faults
    a process, panics its kernel, or the run ends in SLO breach: the
    cause, the last-N trace events from the board's ring, the full
    packed metrics snapshot, and (for board-level causes) a
    [Kernel.freeze] witness thawable back into a live board.

    An artifact is a {!Tock_obs.Frame}: sections [cause], [events], and
    when captured [metrics] (named, so a fresh process can render it)
    and [witness]. Any changed byte is an [Error] naming its section. *)

val magic : string
(** ["TCKFLT02"]. *)

type cause =
  | Fault of { fl_proc : string; fl_reason : string }
  | Panic of string
  | Slo_breach of string  (** the offending verdict summary *)

type event = {
  fe_ts : int;  (** cycles *)
  fe_tid : int;
  fe_kind : string;  (** [Trace.kind_name] at capture time *)
  fe_phase : string;  (** ["B"] | ["E"] | ["i"] | ["X"] *)
  fe_dur : int;
  fe_arg : int;
  fe_text : string;
}

type artifact = {
  fa_cause : cause;
  fa_board : int;  (** board index; -1 for fleet-level causes *)
  fa_seed : int64;  (** fleet seed — enough to rebuild the board *)
  fa_clock : int;  (** board clock at capture, cycles *)
  fa_clock_hz : int;
  fa_events : event list;  (** oldest first *)
  fa_metrics : Tock_obs.Metrics.packed option;
  fa_witness : string option;  (** [Kernel.freeze] bytes *)
}

val cause_name : cause -> string
(** ["fault"] | ["panic"] | ["slo"]. *)

val filename : artifact -> string
(** Deterministic artifact file name, e.g. ["flt-board00042-fault.tckflt"]. *)

val events_of_trace : Tock_obs.Trace.t -> event list
(** The last 256 retained ring events, oldest first. *)

val encode : artifact -> string

val decode : string -> (artifact, string) result

val describe_cause : cause -> string

val render : artifact -> string
(** Human postmortem: cause header, timeline, metrics table, witness
    size. Thawing the witness is [Fleet.thaw_artifact]'s job. *)
