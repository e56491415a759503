(** Fleet simulation: run many deterministic boards in parallel across
    OCaml 5 domains (paper §1: "10 million computers" — the simulator
    side of that scale).

    The unit of parallelism is the {e group}: one shared simulation
    clock holding either a single independent board ([group_size = 1])
    or a small Signpost-style radio network ([group_size > 1]). Groups
    share no mutable state with each other.

    Scheduling is {e depth-first}, one live group per domain: every
    domain takes the next group id from one shared work list and steps
    that group in [batch]-cycle quanta until it retires or parks. A
    group that goes idle sleeps in place to its wake — or to the budget
    end — in O(1) instead of being walked event-by-event. With [park],
    a board asleep at its checkpoint is frozen to a byte witness
    instead; once the work list is exhausted, each domain resumes its
    witnesses in wake order ({!Tock.Kernel.thaw} is the only way back)
    and drives each one the same way. Groups materialize lazily and
    results merge in board order — {!run_fleet} returns byte-identical
    stats for every value of [cfg.domains] and [cfg.batch]. *)

module Rollup = Tock_obs.Rollup
(** Re-exported for callers holding an [fr_health] report. *)

type config = {
  boards : int;      (** total boards in the fleet *)
  domains : int;     (** worker domains; 1 = run inline on this domain *)
  group_size : int;  (** boards per shared-clock radio group; 1 = independent *)
  cycles : int;      (** simulated-cycle budget per group clock *)
  batch : int;       (** dispatch quantum in simulated cycles;
                         affects wall time only, never results *)
  seed : int64;      (** fleet seed; per-group seeds are derived purely *)
  park : bool;
      (** serialize single boards that sleep through several quanta into
          compact byte witnesses ({!Tock.Kernel.freeze}), so the domain
          can start the next group while they sleep; they resume once
          no unstarted group is left. A board parks only when
          {!Tock.Kernel.resumable} holds (every live app asleep at its
          checkpoint); otherwise it stays live and skips the gap in
          place. A parked board resumes by
          rebuilding and thawing directly ({!Tock.Kernel.thaw}) —
          O(state), not O(elapsed). A thaw [Error] raises [Failure]
          naming the board. Changes the memory/wall-time shape only —
          results are byte-identical with parking on or off. *)
  park_min_quanta : int;
      (** park only boards sleeping through at least this many [batch]
          quanta; shorter gaps are already skipped in O(1) by sleeping
          in place. Must be positive. *)
  verify_park : bool;
      (** cross-check every resume: re-freeze the thawed board and
          compare byte-for-byte against the stored witness. Fatal
          [Failure] naming the board on divergence. Debug/test mode. *)
  health : bool;
      (** fold every retiring board's packed metrics into per-cohort
          cross-board rollups ({!Rollup}) and evaluate {!default_slos}
          into [fr_health]. Streaming and commutative: the report is
          byte-identical at any domain count, batch, or park setting. *)
  trace_capacity : int;
      (** [> 0]: give each scheduler domain a trace ring of this many
          events (dispatch quanta, parks, resumes, fast-forward warps) and export the merged multi-lane Chrome/Perfetto JSON
          as [fr_trace_json]. Domain lanes use pid = domain index and a
          virtual time axis (cycles dispatched so far). *)
  trace_boards : int;
      (** sample the first N boards with full per-board rings
          ([trace_capacity] events each), exported as extra lanes with
          pid = [domains + board] (collision-free with domain lanes).
          Sampled boards never park — parking rebuilds the [Sim] and
          would drop the ring — but sampling never changes results. *)
  flight_dir : string option;
      (** arm the fault flight recorder: every process fault or kernel
          panic captures a [TCKFLT02] artifact ({!Flight}) — cause,
          trace tail, packed metrics, freeze witness — and a Degraded/
          Unhealthy end-of-run verdict (with [health]) adds one
          fleet-level SLO-breach artifact. Files are written into this
          directory (which must exist) and listed in [fr_flights].
          While armed, kernel panics retire the group as stalled
          instead of aborting the run. *)
  fault_board : int option;
      (** build this board with only the fault-injector app under
          [Stop_on_fault]: it faults once and halts cleanly, so its
          flight-recorder witness thaws deterministically — the fault
          path's test fixture. *)
}

type board_stats = {
  bs_board : int;
  bs_seed : int64;          (** the group seed this board ran under *)
  bs_cycles : int;          (** final simulated time of the board's clock *)
  bs_active_cycles : int;
  bs_sleep_cycles : int;
  bs_syscalls : int;
  bs_context_switches : int;
  bs_upcalls : int;
  bs_output_bytes : int;
  bs_output_digest : string;  (** MD5 hex of the uart0 capture *)
  bs_metrics : Tock_obs.Metrics.packed;
      (** the board kernel's registry snapshot (kernel/driver/process
          series; hardware-side series stay with the group's Sim),
          packed: the sorted-name schema is pooled fleet-wide, so the
          per-board retained cost is one no-scan byte blob the major GC
          never re-marks. Use {!Tock_obs.Metrics.unpack} for the
          assoc-list view. *)
}

val default : config
(** 16 independent boards, 1 domain, 2M cycles, 250k batch, no
    parking; [park_min_quanta = 2], [verify_park = false]; all
    observability off ([health = false], [trace_capacity = 0],
    [trace_boards = 0], [flight_dir = None], [fault_board = None]). *)

val default_slos : Rollup.slo list
(** The stock per-cohort health gates: [max(kernel.faults)] (warn > 0,
    fail > 1), [max(kernel.restarts)] (warn > 0, fail > 3),
    [p99(kernel.syscalls)] (warn > 65536, fail > 1048576). *)

val group_seed : int64 -> int -> int64
(** [group_seed fleet_seed first_board_index]: pure SplitMix64-style
    derivation, independent of grouping/sharding arithmetic. *)

val group_count : config -> int

type workloads
(** The fleet's app mixes: 3 mixes x 7 period jitters of pure closures,
    built once per run and shared by every board. *)

val build_workloads : unit -> workloads

val build_board : config -> workloads -> int -> Tock_boards.Board.t
(** Independent board [idx] as the fleet builds it, and rebuilds it to
    resume a park: a [Sim] seeded with [group_seed cfg.seed idx], a
    sam4l-like chip, {!Tock_boards.Board.build} and the apps of mix
    [idx mod 3] (counter + hello, blink + sensor logger, kv + hello) at
    jitter [idx mod 7]. The [fault_board] runs the fault injector alone
    under [Stop_on_fault]. *)

val build_radio : config -> g:int -> Tock_boards.Signpost_board.t
(** Radio group [g] as the fleet builds it: a Signpost network of the
    group's boards on one clock, the first a gateway sink expecting 3
    frames from each of the others, which beacon. *)

type fleet_result = {
  fr_stats : board_stats array;  (** indexed by board number *)
  fr_metrics : Tock_obs.Metrics.snapshot;
      (** fleet-wide merged board metrics, accumulated {e streaming} as
          each group retires (per-domain accumulators, tree-merged) —
          byte-identical to [merged_metrics fr_stats] for every domain
          count, batch quantum, and park setting *)
  fr_sched : Tock_obs.Metrics.snapshot;
      (** merged scheduler metrics ([fleet.sched.*]: dispatches, sleeps
          taken in place ([parked_wakes]), fast-forwards, board
          parks/resumes, resume cycles skipped, witness bytes, groups
          run, batch-cycle histogram). These {e do} depend on batch and
          park — they describe the execution, not the simulation — but
          not on domain count: every one is a sum over groups. *)
  fr_health : Rollup.report option;
      (** with [config.health]: per-cohort SLO checks, outlier boards,
          and the overall verdict. Byte-identical (via
          {!Rollup.render_json}) at any domain count. *)
  fr_trace_json : string option;
      (** with [config.trace_capacity > 0]: the merged multi-lane
          Chrome/Perfetto trace (domain lanes + sampled board lanes). *)
  fr_trace_lanes : int * int;
      (** [(domain lanes, board lanes)] exported in [fr_trace_json];
          [(0, 0)] without it. Only single boards are sampled, so a
          fleet of radio groups exports no board lanes. *)
  fr_flights : (string * Flight.artifact) list;
      (** with [config.flight_dir]: the [TCKFLT02] artifacts captured
          this run, as [(written_path, artifact)], in board order
          (fleet-level SLO-breach artifact last). *)
}

val validate : config -> (unit, string) result
(** [Error] names the first problem: a non-positive config field, or a
    [fault_board] the fleet would not build as a single board (outside
    [\[0, boards)] or inside a radio group). *)

val run_fleet : config -> fleet_result
(** Run the whole fleet; [Invalid_argument] when {!validate} rejects
    the config. [fr_stats]
    and [fr_metrics] are deterministic given [config] minus [domains],
    [batch], and [park]. *)

val merged_metrics : board_stats array -> Tock_obs.Metrics.snapshot
(** The pairwise reference merge over the retained packed snapshots.
    Byte-identical to [fr_metrics] (one shared merge kernel — see the
    associativity contract in {!Tock_obs.Metrics}); prefer [fr_metrics]
    when a {!fleet_result} is already in hand. [Invalid_argument] if a
    packed image fails validation — impossible for stats produced by
    {!run_fleet}. *)

val thaw_artifact :
  Flight.artifact -> (Tock_boards.Board.t, string) result
(** Rebuild the artifact's board from its recipe (fleet seed + board
    index) and thaw the embedded freeze witness into it, yielding a
    live board at the captured instant for interactive inspection.
    [Error] when the artifact carries no witness (fleet-level or
    panic-time captures) or the witness declines to thaw. *)

val total_cycles : board_stats array -> int

val total_syscalls : board_stats array -> int

val pp_board_stats : Format.formatter -> board_stats -> unit
