(* Fleet simulation engine: hundreds-to-thousands of boards stepped at
   high aggregate throughput across OCaml 5 domains.

   Boards are deterministic and share no mutable state except the radio
   medium inside a group, so the unit of parallelism is the *group*: one
   shared [Sim] clock holding either a single independent board
   (group_size = 1) or a small radio network (group_size > 1, the
   Signpost deployment shape).

   Scheduling is depth-first, one live group per domain:

   - Every domain takes the next group id from one shared [Atomic]
     cursor, materializes that group and steps it in [batch]-cycle
     quanta via [Kernel.run_to_deadline] until it retires or parks.
     Groups are independent, so interleaving them buys nothing; it only
     keeps several groups' young state alive across every minor
     collection, which promotes all of it (see DESIGN.md, lib/fleet).
   - A group that goes idle sleeps in place to its next hardware-event
     deadline, an O(1) skip of the whole gap. If the wake lies beyond
     the cycle budget the group is *fast-forwarded* — one metered
     [sleep_to] to the budget end — instead of being walked
     event-by-event.
   - With [park], a single board asleep at a freeze point [Kernel.thaw]
     accepts is frozen to a byte witness instead, and the domain moves
     on to the next id. Its witnesses wait in an [Event_queue], each
     scheduled at its wake; once the cursor is exhausted the domain
     drains that queue, resuming them in wake order and driving each
     one the same way (see park/resume below).

   Boards are only materialized when first dispatched and released when
   finished. Results still merge in board-index order and each group's
   execution depends only on its own clock, batch quantum, and budget —
   never on which domain runs it or when — so the output is
   byte-identical at any domain count (and any batch chopping; see
   [Kernel.run_to_deadline]). *)

module Rollup = Tock_obs.Rollup

type config = {
  boards : int;
  domains : int;
  group_size : int;  (* boards per shared-clock radio group; 1 = independent *)
  cycles : int;      (* simulated-cycle budget per group clock *)
  batch : int;       (* dispatch quantum in simulated cycles *)
  seed : int64;
  park : bool;
      (* serialize long-sleeping single boards to byte witnesses, so
         the domain starts the next group while they sleep; only boards
         [Kernel.resumable] accepts park, and they come back by
         [Kernel.thaw]. Changes memory/wall-time shape only, never
         results. *)
  park_min_quanta : int;
      (* park only when the board sleeps through at least this many
         dispatch quanta: below that sleeping in place already skips
         the gap in one hop. *)
  verify_park : bool;
      (* cross-check every thaw: freeze the thawed board and compare
         byte-for-byte against the stored witness. Failure is fatal —
         it means direct materialization lost part of the frozen
         state. Debug/test mode. *)
  health : bool;
      (* fold every retiring board's packed metrics into per-cohort
         cross-board rollups and evaluate [default_slos] into an
         fr_health report. Streaming + commutative, so the report is
         byte-identical at any domain count. *)
  trace_capacity : int;
      (* > 0: give each scheduler domain a Trace ring of this many
         events (dispatch quanta, parks, resumes, fast-forwards) and
         export the merged multi-lane Chrome JSON as fr_trace_json. *)
  trace_boards : int;
      (* sample the first N boards with full per-board rings of
         [trace_capacity] events, exported as extra lanes. Sampled
         boards never park (parking rebuilds the Sim, which would drop
         the ring); like park, sampling never changes results. *)
  flight_dir : string option;
      (* arm the fault flight recorder: any process fault, kernel
         panic, or end-of-run SLO breach captures a TCKFLT02 artifact
         (cause + last trace events + packed metrics + freeze witness)
         into this directory. Single boards get a small always-on ring
         so the artifact has a timeline even when tracing is off. *)
  fault_board : int option;
      (* deliberately build this board with only the fault-injector app
         under Stop_on_fault — the flight recorder's test fixture. *)
}

type board_stats = {
  bs_board : int;
  bs_seed : int64;
  bs_cycles : int;
  bs_active_cycles : int;
  bs_sleep_cycles : int;
  bs_syscalls : int;
  bs_context_switches : int;
  bs_upcalls : int;
  bs_output_bytes : int;
  bs_output_digest : string;
  bs_metrics : Tock_obs.Metrics.packed;
      (* the board's kernel-registry snapshot, packed: the sorted name
         table is pooled fleet-wide, so each board retains only two flat
         int arrays (~10x smaller than the assoc-list snapshot — the
         dominant retained cost at 100k boards). Per-board even when
         boards share a Sim (radio groups keep hw-side series
         group-level). *)
}

let default =
  {
    boards = 16;
    domains = 1;
    group_size = 1;
    cycles = 2_000_000;
    batch = 250_000;
    seed = 0xF1EE_2026L;
    park = false;
    park_min_quanta = 2;
    verify_park = false;
    health = false;
    trace_capacity = 0;
    trace_boards = 0;
    flight_dir = None;
    fault_board = None;
  }

(* Ring size for ordinary single boards while the flight recorder is
   armed: enough tail for a useful postmortem timeline, small enough to
   hand to every board. *)
let flight_ring = 256

(* Per-domain GC tuning for board churn: construction allocates a burst
   of long-lived structures per group, which at the default 256k-word
   minor heap forces a collection every couple of boards. A multi-
   megaword minor heap and a laxer space overhead trade memory that a
   fleet host has for collections it cannot afford. *)
let fleet_gc_tune () =
  let g = Gc.get () in
  Gc.set
    {
      g with
      Gc.minor_heap_size = 1 lsl 22 (* 4M words *);
      space_overhead = 240;
    };
  g

(* Per-group seed: a pure SplitMix64-style mix of the fleet seed and the
   group's first board index, so any board's behaviour is independent of
   which domain runs it and of every other group. *)
let group_seed base idx =
  let open Int64 in
  let z = add base (mul (of_int (idx + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  logxor z (shift_right_logical z 27)

(* Deterministic per-board workload: rotate through app mixes by
   absolute board index so fleet composition doesn't depend on grouping
   arithmetic. The apps are pure closures over a few ints, so the whole
   mix table (3 mixes x 7 jitters) is built once per run and shared by
   every board and domain instead of being rebuilt per group. *)
let workload_mixes = 3

let workload_jitters = 7

type workloads = (string * (Tock_userland.Emu.app -> unit)) list array array

let build_workloads () =
  Array.init workload_mixes (fun mix ->
      Array.init workload_jitters (fun jitter ->
          match mix with
          | 0 ->
              [
                ( "counter",
                  Tock_userland.Apps.counter ~n:8
                    ~period_ticks:(200 + (17 * jitter)) );
                ("hello", Tock_userland.Apps.hello);
              ]
          | 1 ->
              [
                ( "blink",
                  Tock_userland.Apps.blink ~led:0
                    ~period_ticks:(150 + (13 * jitter)) ~blinks:10 );
                ( "sensors",
                  Tock_userland.Apps.sensor_logger ~samples:4
                    ~period_ticks:(900 + (31 * jitter)) );
              ]
          | _ ->
              [
                ("kv", Tock_userland.Apps.kv_user ~rounds:4);
                ("hello", Tock_userland.Apps.hello);
              ]))

let load_workload cfg workloads board idx =
  let apps =
    (* The designated fault board runs only the fault injector: after
       the fault (Stop_on_fault) nothing is live, so the flight
       recorder's freeze witness thaws deterministically. *)
    if cfg.fault_board = Some idx then
      [ ("crasher", Tock_userland.Apps.fault_injector ~delay_ticks:200) ]
    else workloads.(idx mod workload_mixes).(idx mod workload_jitters)
  in
  List.iter
    (fun (name, app) ->
      match Tock_boards.Board.add_app board ~name app with
      | Ok _ -> ()
      | Error e ->
          failwith
            (Printf.sprintf "fleet: board %d app %s: %s" idx name
               (Tock.Error.to_string e)))
    apps

let stats_of ~idx ~seed (b : Tock_boards.Board.t) =
  let s = Tock.Kernel.stats b.Tock_boards.Board.kernel in
  let sim = b.Tock_boards.Board.sim in
  let out = Tock_boards.Board.output b in
  {
    bs_board = idx;
    bs_seed = seed;
    bs_cycles = Tock_hw.Sim.now sim;
    bs_active_cycles = Tock_hw.Sim.active_cycles sim;
    bs_sleep_cycles = Tock_hw.Sim.sleep_cycles sim;
    bs_syscalls = s.Tock.Kernel.syscalls;
    bs_context_switches = s.Tock.Kernel.context_switches;
    bs_upcalls = s.Tock.Kernel.upcalls_delivered;
    bs_output_bytes = String.length out;
    (* Stdlib MD5, not Tock_crypto: fleet is board-layer code and the
       crypto-confinement lint keeps crypto primitives out of boards.
       This digest only fingerprints output for determinism checks. *)
    bs_output_digest = Digest.to_hex (Digest.string out);
    bs_metrics = Tock_obs.Metrics.packed_of (Tock.Kernel.metrics b.Tock_boards.Board.kernel);
  }

(* ---- group runtimes ---- *)

type group_kind =
  | Single of Tock_boards.Board.t
  | Radio of Tock_boards.Signpost_board.t

type group_rt = {
  gr_lo : int;   (* first board index *)
  gr_seed : int64;
  gr_kind : group_kind;
  mutable gr_fault : Flight.cause option;
      (* first fault/panic seen on this group (set by the kernel fault
         hook while the flight recorder is armed) *)
  mutable gr_flighted : bool; (* an artifact was already captured *)
}

let group_count cfg = (cfg.boards + cfg.group_size - 1) / cfg.group_size

(* The first [trace_boards] boards carry full per-board rings and
   become extra export lanes. Sampling is by absolute board index, so
   it is independent of domains/batch/park like everything else. *)
let sampled cfg lo = cfg.trace_capacity > 0 && lo < cfg.trace_boards

(* One independent board on its own clock. Tracing is off unless the
   board is sampled (full ring) or the flight recorder is armed (small
   tail ring for postmortem timelines). *)
let build_board cfg workloads idx =
  let trace_capacity =
    if sampled cfg idx then cfg.trace_capacity
    else if cfg.flight_dir <> None then flight_ring
    else 0
  in
  let sim = Tock_hw.Sim.create ~seed:(group_seed cfg.seed idx) ~trace_capacity () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board =
    if cfg.fault_board = Some idx then
      Tock_boards.Board.build
        ~config:
          {
            (Tock.Kernel.default_config ()) with
            Tock.Kernel.fault_policy = Tock.Kernel.Stop_on_fault;
          }
        chip
    else Tock_boards.Board.build chip
  in
  load_workload cfg workloads board idx;
  board

let materialize_single cfg workloads ~g =
  let lo = g in
  let board = build_board cfg workloads lo in
  let rt =
    { gr_lo = lo; gr_seed = group_seed cfg.seed lo; gr_kind = Single board;
      gr_fault = None; gr_flighted = false }
  in
  if cfg.flight_dir <> None then
    Tock.Kernel.set_fault_hook board.Tock_boards.Board.kernel
      (fun proc reason ->
        if rt.gr_fault = None then
          rt.gr_fault <-
            Some
              (Flight.Fault
                 {
                   fl_proc = Tock.Process.name proc;
                   fl_reason = Tock.Process.describe_fault reason;
                 }));
  rt

(* A radio group: one shared clock and medium, first board is the
   gateway sink, the rest are beacons (the Signpost deployment). Radio
   groups export no board lanes, so their clock traces only for the
   flight recorder. Every node shares that ring, so it holds
   [flight_ring] events per node: a radio board keeps as long a tail
   as a single board. *)
let build_radio cfg ~g =
  let lo = g * cfg.group_size in
  let n = min cfg.boards ((g + 1) * cfg.group_size) - lo in
  let trace_capacity =
    if cfg.flight_dir <> None then flight_ring * n else 0
  in
  let net =
    Tock_boards.Signpost_board.create ~seed:(group_seed cfg.seed lo)
      ~loss_prob:0.02 ~trace_capacity ~nodes:n ()
  in
  let gateway, sensors =
    match net.Tock_boards.Signpost_board.nodes with
    | g :: rest -> (g, rest)
    | [] -> assert false
  in
  (match
     Tock_boards.Board.add_app gateway.Tock_boards.Signpost_board.node_board
       ~name:"sink"
       (Tock_userland.Apps.radio_sink ~expect:(3 * (n - 1)))
   with
  | Ok _ -> ()
  | Error e -> failwith ("fleet: gateway sink: " ^ Tock.Error.to_string e));
  List.iteri
    (fun i node ->
      match
        Tock_boards.Board.add_app node.Tock_boards.Signpost_board.node_board
          ~name:(Printf.sprintf "beacon%d" i)
          (Tock_userland.Apps.radio_beacon ~frames:3
             ~period_ticks:(700 + (61 * i)))
      with
      | Ok _ -> ()
      | Error e -> failwith ("fleet: beacon: " ^ Tock.Error.to_string e))
    sensors;
  net

let materialize_radio cfg ~g =
  let net = build_radio cfg ~g in
  let lo = g * cfg.group_size in
  { gr_lo = lo; gr_seed = group_seed cfg.seed lo; gr_kind = Radio net;
    gr_fault = None; gr_flighted = false }

let materialize cfg workloads ~g =
  if cfg.group_size = 1 then materialize_single cfg workloads ~g
  else if min cfg.boards ((g + 1) * cfg.group_size) - (g * cfg.group_size) = 1
  then materialize_single cfg workloads ~g:(g * cfg.group_size)
  else materialize_radio cfg ~g

let group_sim rt =
  match rt.gr_kind with
  | Single b -> b.Tock_boards.Board.sim
  | Radio net -> net.Tock_boards.Signpost_board.sim

let group_now rt = Tock_hw.Sim.now (group_sim rt)

let group_run rt ~deadline =
  match rt.gr_kind with
  | Single b ->
      Tock.Kernel.run_to_deadline b.Tock_boards.Board.kernel
        ~cap:b.Tock_boards.Board.main_cap ~deadline
  | Radio net -> Tock_boards.Signpost_board.run_to_deadline net ~deadline

let group_sleep_to rt time =
  match rt.gr_kind with
  | Single b ->
      Tock.Kernel.sleep_to b.Tock_boards.Board.kernel
        ~cap:b.Tock_boards.Board.main_cap time
  | Radio net -> Tock_boards.Signpost_board.sleep_all_to net time

let group_stats rt =
  match rt.gr_kind with
  | Single b -> [ stats_of ~idx:rt.gr_lo ~seed:rt.gr_seed b ]
  | Radio net ->
      List.mapi
        (fun i node ->
          stats_of ~idx:(rt.gr_lo + i) ~seed:rt.gr_seed
            node.Tock_boards.Signpost_board.node_board)
        net.Tock_boards.Signpost_board.nodes

(* ---- park/resume ----

   A single board fully asleep with a far-off wake can be frozen to a
   compact byte witness ([Kernel.freeze]: sparse RAM + process table +
   event schedule + component sections + registries — a few kB vs the
   full Sim/kernel/capsule/continuation graph). The domain then builds
   and runs the next group while the witness waits in the domain's
   [Event_queue], scheduled at its wake deadline; once the shared
   cursor is exhausted the domain drains the queue, resuming its
   witnesses in wake order, one at a time. A board parks only when
   [Kernel.resumable] holds — every live app asleep at its checkpoint
   — and resumes by rebuilding it from the same deterministic recipe
   and *thawing* it: [Kernel.thaw] materializes the frozen state
   directly, O(state) instead of O(elapsed cycles), which keeps resume
   cost flat as fleets run longer. A board that is
   not resumable stays live and sleeps in place like any other group. A
   thaw [Error] is therefore a bug: the run fails naming the board, and
   rerunning the same config reproduces it. Only [Single] groups park —
   radio groups share a Sim across boards and stay live. *)

type parked = {
  pk_g : int;         (* group id, for rematerialization *)
  pk_wake : int;      (* the wake deadline the board parked against *)
  pk_clock : int;     (* group clock at park time *)
  pk_witness : string; (* Kernel.freeze at park time *)
}

(* Rebuild + thaw, then take the sleep the board parked in, in one hop. *)
let resume_parked cfg workloads pk =
  let rt = materialize cfg workloads ~g:pk.pk_g in
  (match rt.gr_kind with
  | Single b ->
      let k = b.Tock_boards.Board.kernel in
      (match
         Tock.Kernel.thaw k ~cap:b.Tock_boards.Board.main_cap pk.pk_witness
       with
      | Ok () -> ()
      | Error e ->
          failwith (Printf.sprintf "Fleet: resume of board %d: %s" rt.gr_lo e));
      if cfg.verify_park then begin
        (* Re-freezing the thawed board must reproduce the witness. *)
        let refrozen = Tock.Kernel.freeze k in
        if not (String.equal refrozen pk.pk_witness) then
          failwith
            (Printf.sprintf
               "Fleet: verify_park: board %d thaw diverged from its witness \
                (%s vs %s)"
               rt.gr_lo
               (Digest.to_hex (Digest.string refrozen))
               (Digest.to_hex (Digest.string pk.pk_witness)))
      end
  | Radio _ -> assert false);
  group_sleep_to rt pk.pk_wake;
  rt

(* ---- the per-domain scheduler ---- *)

(* Everything one domain hands back: per-board stats (unordered), the
   streaming metrics accumulator, the scheduler-metrics snapshot, and
   the observability side-channels — per-cohort health rollup, the
   domain's own trace lane, the sampled boards' lanes, and any flight
   artifacts captured. *)
type domain_out = {
  do_stats : board_stats list;
  do_accum : Tock_obs.Metrics.Accum.t;
  do_sched : Tock_obs.Metrics.snapshot;
  do_rollup : Rollup.t option;
  do_lane : Tock_obs.Trace.lane option;
  do_board_lanes : Tock_obs.Trace.lane list;
  do_flights : Flight.artifact list;
}

(* A sampled board's export lane: the board's own ring, with threads
   named after its processes. Holding the ring and name list keeps
   nothing else of the released board alive. *)
let lane_of_board cfg lo (b : Tock_boards.Board.t) =
  {
    Tock_obs.Trace.lane_pid = cfg.domains + lo;
    lane_name = Printf.sprintf "board %d" lo;
    lane_tids =
      (-1, "kernel")
      :: List.map
           (fun p -> (Tock.Process.id p, Tock.Process.name p))
           (Tock.Kernel.processes b.Tock_boards.Board.kernel);
    lane_trace = Tock_hw.Sim.trace_events b.Tock_boards.Board.sim;
  }

(* One domain's run: drive each group it takes from the shared cursor
   to retirement or park, then resume its parked witnesses in wake
   order. *)
let run_domain cfg workloads cursor d =
  let reg = Tock_obs.Metrics.create () in
  let c_dispatches = Tock_obs.Metrics.counter reg "fleet.sched.dispatches" in
  let c_ff = Tock_obs.Metrics.counter reg "fleet.sched.fast_forwards" in
  let c_parked = Tock_obs.Metrics.counter reg "fleet.sched.parked_wakes" in
  let c_board_parks = Tock_obs.Metrics.counter reg "fleet.sched.board_parks" in
  let c_board_resumes = Tock_obs.Metrics.counter reg "fleet.sched.board_resumes" in
  let c_resume_cycles = Tock_obs.Metrics.counter reg "fleet.sched.resume_cycles" in
  let c_witness_bytes = Tock_obs.Metrics.counter reg "fleet.sched.witness_bytes" in
  let c_groups = Tock_obs.Metrics.counter reg "fleet.sched.groups_run" in
  let h_batch = Tock_obs.Metrics.histogram reg "fleet.sched.batch_cycles" in
  let accum = Tock_obs.Metrics.Accum.create () in
  let roll =
    if cfg.health then Some (Rollup.create ~cohorts:workload_mixes) else None
  in
  (* The domain's own trace lane. Timestamps are the domain's virtual
     time: the sum of simulated cycles it has dispatched so far —
     deterministic, monotone, and comparable across domains (wall time
     would be neither). Disabled-mode emit is a load+branch, so the
     calls below stay unconditional. *)
  let dtr = Tock_obs.Trace.create ~capacity:cfg.trace_capacity in
  let dvt = ref 0 in
  let board_lanes = ref [] in
  let flights = ref [] in
  (* Capture a TCKFLT02 artifact for a group whose kernel faulted or
     panicked this quantum: cause, trace tail, packed metrics, and (for
     single boards) a freeze witness. *)
  let maybe_flight rt =
    match rt.gr_fault with
    | Some cause when (not rt.gr_flighted) && cfg.flight_dir <> None ->
        rt.gr_flighted <- true;
        let witness, metrics =
          match rt.gr_kind with
          | Single b ->
              ( Some (Tock.Kernel.freeze b.Tock_boards.Board.kernel),
                Some
                  (Tock_obs.Metrics.packed_of
                     (Tock.Kernel.metrics b.Tock_boards.Board.kernel)) )
          | Radio _ -> (None, None)
        in
        let sim = group_sim rt in
        flights :=
          {
            Flight.fa_cause = cause;
            fa_board = rt.gr_lo;
            fa_seed = cfg.seed;
            fa_clock = Tock_hw.Sim.now sim;
            fa_clock_hz = Tock_hw.Sim.clock_hz sim;
            fa_events = Flight.events_of_trace (Tock_hw.Sim.trace_events sim);
            fa_metrics = metrics;
            fa_witness = witness;
          }
          :: !flights
    | _ -> ()
  in
  (* Pooled freeze encoder: one scratch buffer per domain, so parking
     10k boards doesn't re-grow a fresh Buffer 10k times. *)
  let wbuf = Buffer.create (64 * 1024) in
  (* The domain's parked witnesses, each scheduled at its wake: the
     (deadline, insertion) order every board clock already keeps. *)
  let parked = Tock_hw.Event_queue.create () in
  let results = ref [] in
  let finish rt =
    (* Stream-merge as the group retires: the packed snapshots are both
       the retained per-board stats and the merge input, so the
       end-of-run cost is one absorb per domain, not O(boards). The
       health rollup folds the same packed image — still O(1) retained
       state per board. *)
    let stats = group_stats rt in
    List.iter
      (fun bs ->
        Tock_obs.Metrics.Accum.add_packed accum bs.bs_metrics;
        match roll with
        | Some r ->
            Rollup.add_packed r
              ~cohort:(bs.bs_board mod workload_mixes)
              bs.bs_metrics
        | None -> ())
      stats;
    (match rt.gr_kind with
    | Single b when sampled cfg rt.gr_lo ->
        board_lanes := lane_of_board cfg rt.gr_lo b :: !board_lanes
    | _ -> ());
    results := List.rev_append stats !results;
    Tock_obs.Metrics.incr c_groups
  in
  (* Step [rt] one [batch]-cycle quantum at a time until it retires or
     parks. *)
  let rec drive rt =
    Tock_obs.Metrics.incr c_dispatches;
    let start = group_now rt in
    let deadline = min (start + cfg.batch) cfg.cycles in
    let outcome =
      (* With the flight recorder armed a kernel panic becomes a
         captured artifact and the group retires as stalled; unarmed it
         propagates as before. *)
      try group_run rt ~deadline
      with Tock.Kernel.Panic m when cfg.flight_dir <> None ->
        if rt.gr_fault = None then rt.gr_fault <- Some (Flight.Panic m);
        `Stalled
    in
    let ran = group_now rt - start in
    Tock_obs.Metrics.observe h_batch ran;
    Tock_obs.Trace.emit_complete dtr ~ts:!dvt ~dur:ran ~tid:(-1)
      Tock_obs.Trace.Dispatch ~arg:rt.gr_lo ~text:"";
    dvt := !dvt + ran;
    maybe_flight rt;
    match outcome with
    | `Budget -> if group_now rt >= cfg.cycles then finish rt else drive rt
    | `Stalled ->
        (* Nothing runnable and no event pending: the simulation is over
           for this group, whatever the budget says. *)
        finish rt
    | `Asleep wake when wake >= cfg.cycles ->
        (* The rest of the budget is one long sleep: warp there. *)
        Tock_obs.Trace.emit_complete dtr ~ts:!dvt
          ~dur:(cfg.cycles - group_now rt)
          ~tid:0 Tock_obs.Trace.Fast_forward ~arg:rt.gr_lo ~text:"";
        group_sleep_to rt cfg.cycles;
        Tock_obs.Metrics.incr c_ff;
        finish rt
    | `Asleep wake -> (
        match rt.gr_kind with
        | Single b
          when cfg.park
               && (not (sampled cfg rt.gr_lo))
               && wake - group_now rt >= cfg.park_min_quanta * cfg.batch
               && Tock.Kernel.resumable b.Tock_boards.Board.kernel ->
            (* Long sleep ahead at a freeze point thaw accepts: keep a
               byte witness until the cursor runs dry. *)
            let pk =
              {
                (* The group id materialize was called with (for a
                   leftover single board in a radio-sized fleet the id
                   is lo / group_size, not lo). *)
                pk_g = rt.gr_lo / cfg.group_size;
                pk_wake = wake;
                pk_clock = group_now rt;
                pk_witness =
                  Tock.Kernel.freeze ~buf:wbuf b.Tock_boards.Board.kernel;
              }
            in
            Tock_obs.Metrics.incr c_board_parks;
            Tock_obs.Metrics.add c_witness_bytes (String.length pk.pk_witness);
            Tock_obs.Trace.emit dtr ~ts:!dvt ~tid:(-1) Tock_obs.Trace.Park
              Tock_obs.Trace.Instant ~arg:rt.gr_lo ~text:"";
            ignore
              (Tock_hw.Event_queue.schedule parked ~time:wake (fun () ->
                   resume pk))
        | _ ->
            (* Asleep but not parkable: sleep in place, in one hop. *)
            group_sleep_to rt wake;
            Tock_obs.Metrics.incr c_parked;
            drive rt)
  and resume pk =
    Tock_obs.Metrics.incr c_board_resumes;
    Tock_obs.Metrics.add c_resume_cycles (pk.pk_wake - pk.pk_clock);
    Tock_obs.Trace.emit dtr ~ts:!dvt ~tid:(-1) Tock_obs.Trace.Resume
      Tock_obs.Trace.Instant
      ~arg:(pk.pk_g * cfg.group_size)
      ~text:"";
    drive (resume_parked cfg workloads pk)
  in
  let ngroups = group_count cfg in
  let rec fresh () =
    let g = Atomic.fetch_and_add cursor 1 in
    if g < ngroups then begin
      drive (materialize cfg workloads ~g);
      fresh ()
    end
  in
  fresh ();
  (* Resume soonest wake first; a board that parks again while it
     resumes joins the same queue. *)
  ignore (Tock_hw.Event_queue.run_due parked ~now:max_int);
  {
    do_stats = !results;
    do_accum = accum;
    do_sched = Tock_obs.Metrics.snapshot reg;
    do_rollup = roll;
    do_lane =
      (if Tock_obs.Trace.on dtr then
         Some
           {
             Tock_obs.Trace.lane_pid = d;
             lane_name = Printf.sprintf "domain %d" d;
             lane_tids = [ (-1, "dispatch"); (0, "warp") ];
             lane_trace = dtr;
           }
       else None);
    do_board_lanes = !board_lanes;
    do_flights = !flights;
  }

let validate cfg =
  let non_positive =
    [ ("boards", cfg.boards); ("group_size", cfg.group_size);
      ("domains", cfg.domains); ("cycles", cfg.cycles); ("batch", cfg.batch);
      ("park_min_quanta", cfg.park_min_quanta) ]
  and negative =
    [ ("trace_capacity", cfg.trace_capacity); ("trace_boards", cfg.trace_boards) ]
  in
  match
    ( List.find_opt (fun (_, v) -> v <= 0) non_positive,
      List.find_opt (fun (_, v) -> v < 0) negative )
  with
  | Some (name, _), _ -> Error (name ^ " <= 0")
  | None, Some (name, _) -> Error (name ^ " < 0")
  | None, None -> (
      (* Only a single board runs the fault injector: radio groups never
         read [fault_board]. A group of one (a leftover board of a
         radio-sized fleet) is built as a single board. *)
      match cfg.fault_board with
      | Some b when b < 0 || b >= cfg.boards ->
          Error (Printf.sprintf "fault_board %d outside [0, %d)" b cfg.boards)
      | Some b ->
          let lo = b / cfg.group_size * cfg.group_size in
          let members = min cfg.boards (lo + cfg.group_size) - lo in
          if members > 1 then
            Error
              (Printf.sprintf
                 "fault_board %d is in a radio group of %d boards, which \
                  never builds it as a single board"
                 b members)
          else Ok ()
      | None -> Ok ())

(* The stock per-cohort health gates: any fault degrades a cohort, two
   or more on one board (or exhausted restarts) fail it; a p99 syscall
   count far off the workload's envelope flags runaway boards. *)
let default_slos =
  [
    { Rollup.slo_metric = "kernel.faults"; slo_stat = Rollup.Max; slo_warn = 0;
      slo_fail = 1 };
    { Rollup.slo_metric = "kernel.restarts"; slo_stat = Rollup.Max;
      slo_warn = 0; slo_fail = 3 };
    { Rollup.slo_metric = "kernel.syscalls"; slo_stat = Rollup.P99;
      slo_warn = 1 lsl 16; slo_fail = 1 lsl 20 };
  ]

type fleet_result = {
  fr_stats : board_stats array;
  fr_metrics : Tock_obs.Metrics.snapshot;
  fr_sched : Tock_obs.Metrics.snapshot;
  fr_health : Rollup.report option;
  fr_trace_json : string option;
  fr_trace_lanes : int * int; (* domain lanes, board lanes in fr_trace_json *)
  fr_flights : (string * Flight.artifact) list;
}

let run_fleet cfg =
  Result.iter_error (fun e -> invalid_arg ("Fleet.run_fleet: " ^ e)) (validate cfg);
  let ngroups = group_count cfg in
  let domains = min cfg.domains ngroups in
  let workloads = build_workloads () in
  (* The one work list: every domain takes the next unstarted group id
     from here, in ascending order. *)
  let cursor = Atomic.make 0 in
  let shards =
    if domains = 1 then begin
      (* Inline on this domain; restore the caller's GC settings after. *)
      let saved = fleet_gc_tune () in
      Fun.protect
        ~finally:(fun () -> Gc.set saved)
        (fun () -> [ run_domain cfg workloads cursor 0 ])
    end
    else
      let workers =
        Array.init domains (fun d ->
            Domain.spawn (fun () ->
                ignore (fleet_gc_tune ());
                run_domain cfg workloads cursor d))
      in
      Array.to_list (Array.map Domain.join workers)
  in
  (* Merge in board order: the per-domain result queues are unordered
     relative to each other, the board index is the total order. *)
  let merged =
    Array.make cfg.boards
      {
        bs_board = -1;
        bs_seed = 0L;
        bs_cycles = 0;
        bs_active_cycles = 0;
        bs_sleep_cycles = 0;
        bs_syscalls = 0;
        bs_context_switches = 0;
        bs_upcalls = 0;
        bs_output_bytes = 0;
        bs_output_digest = "";
        bs_metrics =
          {
            Tock_obs.Metrics.p_schema = { sc_names = [||]; sc_kinds = "" };
            p_blob = "";
          };
      }
  in
  List.iter
    (fun o -> List.iter (fun bs -> merged.(bs.bs_board) <- bs) o.do_stats)
    shards;
  Array.iteri
    (fun i bs ->
      if bs.bs_board <> i then failwith "Fleet.run_fleet: missing board")
    merged;
  (* Tree-merge the per-domain accumulators in domain order. Every
     combine is an integer sum (see the associativity contract in
     Tock_obs.Metrics), so the result is byte-identical to the pairwise
     merge over the board array whatever the retirement order, domain
     placement, or park/resume history. *)
  let fleet_acc = Tock_obs.Metrics.Accum.create () in
  List.iter
    (fun o -> Tock_obs.Metrics.Accum.absorb ~into:fleet_acc o.do_accum)
    shards;
  let fr_metrics = Tock_obs.Metrics.Accum.to_snapshot fleet_acc in
  (* Health: absorb the per-domain rollups (same commutative-sum
     contract), then evaluate SLOs and run the outlier pass over the
     merged stats in board order — deterministic at any domain count. *)
  let fr_health =
    if not cfg.health then None
    else begin
      let fleet_roll = Rollup.create ~cohorts:workload_mixes in
      List.iter
        (fun o ->
          match o.do_rollup with
          | Some r -> Rollup.absorb ~into:fleet_roll r
          | None -> ())
        shards;
      Some
        (Rollup.evaluate fleet_roll ~slos:default_slos
           ~iter_boards:(fun f ->
             Array.iter
               (fun bs ->
                 f
                   ~cohort:(bs.bs_board mod workload_mixes)
                   ~board:bs.bs_board bs.bs_metrics)
               merged))
    end
  in
  (* Flight artifacts: the domains captured fault/panic dumps; an
     unhealthy or degraded end-of-run verdict adds one fleet-level
     SLO-breach artifact carrying the merged metrics. Files are written
     here, single-threaded, in board order. *)
  let artifacts =
    List.stable_sort
      (fun a b -> compare a.Flight.fa_board b.Flight.fa_board)
      (List.concat_map (fun o -> List.rev o.do_flights) shards)
  in
  let artifacts =
    match (cfg.flight_dir, fr_health) with
    | Some _, Some rp when rp.Rollup.rp_verdict <> Rollup.Healthy ->
        let failing =
          List.filter
            (fun c -> c.Rollup.ck_verdict <> Rollup.Healthy)
            rp.Rollup.rp_checks
        in
        artifacts
        @ [
            {
              Flight.fa_cause =
                Flight.Slo_breach
                  (Printf.sprintf "%s: %d of %d checks failing"
                     (Rollup.verdict_name rp.Rollup.rp_verdict)
                     (List.length failing)
                     (List.length rp.Rollup.rp_checks));
              fa_board = -1;
              fa_seed = cfg.seed;
              fa_clock = 0;
              fa_clock_hz = 1;
              fa_events = [];
              fa_metrics = Some (Tock_obs.Metrics.pack fr_metrics);
              fa_witness = None;
            };
          ]
    | _ -> artifacts
  in
  let fr_flights =
    match cfg.flight_dir with
    | None -> []
    | Some dir ->
        List.map
          (fun a ->
            let path = Filename.concat dir (Flight.filename a) in
            let oc = open_out_bin path in
            output_string oc (Flight.encode a);
            close_out oc;
            (path, a))
          artifacts
  in
  let fr_trace_json, fr_trace_lanes =
    if cfg.trace_capacity <= 0 then (None, (0, 0))
    else
      let dlanes = List.filter_map (fun o -> o.do_lane) shards in
      let blanes =
        List.stable_sort
          (fun a b ->
            compare a.Tock_obs.Trace.lane_pid b.Tock_obs.Trace.lane_pid)
          (List.concat_map (fun o -> o.do_board_lanes) shards)
      in
      let clock_hz = Tock_hw.Sim.clock_hz (Tock_hw.Sim.create ()) in
      ( Some (Tock_obs.Trace.to_chrome_json_lanes ~clock_hz (dlanes @ blanes)),
        (List.length dlanes, List.length blanes) )
  in
  {
    fr_stats = merged;
    fr_metrics;
    fr_sched = Tock_obs.Metrics.merge (List.map (fun o -> o.do_sched) shards);
    fr_health;
    fr_trace_json;
    fr_trace_lanes;
    fr_flights;
  }

(* The pairwise reference merge over retained packed stats; byte-
   identical to the streaming [fr_metrics] (and still the right tool
   once only the stats array is in hand). The packed images came out of
   packed_of, so the validation merge_packed now runs cannot fail. *)
let merged_metrics stats =
  match
    Tock_obs.Metrics.merge_packed
      (Array.to_list (Array.map (fun bs -> bs.bs_metrics) stats))
  with
  | Ok snap -> snap
  | Error e -> invalid_arg ("Fleet.merged_metrics: " ^ e)

(* Rebuild the faulted board from the artifact's recipe (fleet seed +
   board index) and thaw the witness into it. The artifact does not
   record whether its board was the designated fault board, and thaw
   byte-verifies structure against the witness — so try the fault-board
   construction first and fall back to the ordinary workload, each on a
   fresh board (a declined thaw may leave the attempt half-patched). *)
let thaw_artifact (a : Flight.artifact) =
  match a.Flight.fa_witness with
  | None -> Error "artifact has no witness"
  | Some _ when a.Flight.fa_board < 0 -> Error "fleet-level artifact has no board"
  | Some witness ->
      let attempt fault_board =
        let cfg = { default with seed = a.Flight.fa_seed; fault_board } in
        let workloads = build_workloads () in
        let rt = materialize_single cfg workloads ~g:a.Flight.fa_board in
        match rt.gr_kind with
        | Single b -> (
            match
              Tock.Kernel.thaw b.Tock_boards.Board.kernel
                ~cap:b.Tock_boards.Board.main_cap witness
            with
            | Ok () -> Ok b
            | Error e -> Error e)
        | Radio _ -> assert false
      in
      match attempt (Some a.Flight.fa_board) with
      | Ok b -> Ok b
      | Error e1 -> (
          match attempt None with
          | Ok b -> Ok b
          | Error e2 -> Error (e1 ^ "; as plain workload: " ^ e2))

let total_cycles stats =
  Array.fold_left (fun acc bs -> acc + bs.bs_cycles) 0 stats

let total_syscalls stats =
  Array.fold_left (fun acc bs -> acc + bs.bs_syscalls) 0 stats

let pp_board_stats fmt bs =
  Format.fprintf fmt
    "board %4d seed=%016Lx cycles=%d active=%d sleep=%d syscalls=%d \
     switches=%d upcalls=%d out=%dB %s"
    bs.bs_board bs.bs_seed bs.bs_cycles bs.bs_active_cycles bs.bs_sleep_cycles
    bs.bs_syscalls bs.bs_context_switches bs.bs_upcalls bs.bs_output_bytes
    (String.sub bs.bs_output_digest 0 12)
