(** Cross-board health rollups: streaming per-metric distributions
    {e across boards}, per cohort, with SLO evaluation and outlier
    detection — the health-gating primitive for fleet runs.

    As each board retires, {!add_packed} folds its packed metrics into
    one log2 histogram per metric name (plus exact min/max/sum/count):
    counters and gauges contribute their value, histograms their
    observation count. All accumulation is element-wise addition, so
    per-domain partial rollups combined with {!absorb} in any order or
    tree shape render the same report as a single sequential pass —
    the same associativity contract as [Metrics.merge]. Memory is
    O(metrics x cohorts), independent of board count. *)

type t

val create : cohorts:int -> t
(** [cohorts] must be positive; boards are assigned to cohorts by the
    caller (the fleet uses [board mod workload_mixes], so a cohort is
    "all boards running workload mix k"). *)

val add_packed : t -> cohort:int -> Metrics.packed -> unit
(** Fold one retired board's packed metrics into its cohort. *)

val absorb : into:t -> t -> unit
(** Fold a partial rollup into [into] (cross-domain tree merge);
    [src] is unchanged. [Invalid_argument] if cohort counts differ. *)

(** {2 Statistics} *)

type stat = P50 | P99 | Max | Mean | Total

val stat_value : t -> cohort:int -> string -> stat -> int
(** The statistic of a metric's cross-board distribution within one
    cohort. Quantiles are bucket upper bounds clamped to the observed
    max (within 2x, monotone); a metric never seen reads 0. *)

(** {2 SLO evaluation} *)

type verdict = Healthy | Degraded | Unhealthy

val verdict_name : verdict -> string

type slo = {
  slo_metric : string;
  slo_stat : stat;
  slo_warn : int;  (** statistic > warn: [Degraded] *)
  slo_fail : int;  (** statistic > fail: [Unhealthy] *)
}

type check = {
  ck_cohort : int;
  ck_metric : string;
  ck_stat : stat;
  ck_boards : int;  (** boards in the cohort *)
  ck_value : int;  (** the evaluated statistic *)
  ck_warn : int;
  ck_fail : int;
  ck_verdict : verdict;
}

type outlier = {
  ol_board : int;
  ol_cohort : int;
  ol_metric : string;
  ol_value : int;
  ol_median : int;  (** the cohort median it deviated from *)
}

type report = {
  rp_boards : int;
  rp_checks : check list;  (** SLO order, then cohort order *)
  rp_outliers : outlier list;  (** board order, then schema order *)
  rp_verdict : verdict;  (** worst of all checks *)
}

val evaluate :
  t ->
  slos:slo list ->
  iter_boards:((cohort:int -> board:int -> Metrics.packed -> unit) -> unit) ->
  report
(** Evaluate every SLO against every cohort, and flag outlier boards:
    a board whose per-metric value is both >= 8 times the cohort median
    (taken as at least 1) and >= 64 (a noise floor for near-zero
    medians). Outliers need the final medians, so they are a second
    pass: [iter_boards] must
    replay the retained per-board packed stats in a deterministic
    (board) order. The report is a pure function of the folded
    multiset of boards — byte-identical however domains interleaved. *)

val render_text : report -> string

val render_json : report -> string
(** Deterministic JSON: verdict, board count, checks, outliers. *)
