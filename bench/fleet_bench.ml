(* Fleet-scaling benchmark: aggregate simulated-cycle throughput
   (boards x cycles per wall-second) through the depth-first fleet
   scheduler, plus the retained memory footprint per board. Each sample
   is 3 runs through [Harness]; its ns/op is host ns per simulated
   cycle, and the gates read the median run. Three measurements:

     1. board-count sweep at 1 domain (1 .. 10k boards) — the number
        comparable across hosts and against the seed artifact;
     2. domains sweep (1/2/4/8) at a fixed fleet size — scaling shape
        of domains sharing one work list of groups. Skipped on a
        single-core host, where domains > 1 only measure
        safepoint/timeslicing overhead and the samples would be noise,
        not signal;
     3. a 100k-board sample with [park] on and a batch quantum small
        enough that boards sleeping through an alarm period actually
        freeze into byte witnesses and thaw back — the "can a 100k
        fleet fit AND keep its throughput" datapoint. Resumes are
        O(state) ([Tock.Kernel.thaw]), so the sample carries the same
        cycles/s floor as the 10k one.

   bytes/board = live-heap growth across the run while the result is
   still held, so it measures exactly what a caller keeps: the
   board_stats array with packed metrics, fleet-wide merged snapshots,
   and any pooled schema/sentinel tables.

   The `fleet-smoke` variant runs only a 256-board park sample under
   `dune runtest` and gates that boards really park and all resume; the
   throughput floors and the bytes/board ceiling are full-mode only. *)

let cores () = max 1 (Domain.recommended_domain_count ())

(* The seed artifact's 1024-board single-domain sample measured
   1.5023e8 cycles/s (run-to-completion round-robin runner, eager 512 kB
   flash per board). The scheduler rewrite + lazy copy-on-write flash
   must clear 10x that on the same sample. *)
let gate_floor = 1.5e9

(* The 10k-board sample is where per-board stats retention used to
   dominate: full snapshots retained ~10 kB/board and throughput fell
   to 1.39e9 cycles/s. Packed stats must hold 3e9+. *)
let gate_floor_10k = 3.0e9

(* Resume cost must grow with a board's state size, not with the
   simulated time it slept through: the 100k-board park sample keeps
   the same floor as the 10k one. *)
let gate_floor_100k = 3.0e9

(* Retained footprint ceiling for the 100k-board park sample. Packed
   stats are two flat int arrays against a pooled schema; the
   board_stats record plus uart digest string rounds it out. *)
let gate_bytes_per_board = 4096

type run = {
  wall_ns : int;
  cycles : int;  (* aggregate simulated cycles *)
  syscalls : int;
  bytes_per_board : int;  (* retained live heap growth / boards *)
  parks : int;
  resumes : int;
  resume_cycles : int;  (* simulated cycles parked boards slept through
                           while frozen *)
  witness_bytes : int;  (* peak-free running total of frozen bytes *)
}

(* Full major collection, not [Gc.compact]: live_words is exact after
   either, but compaction also shrinks the heap back to the live set,
   and the next timed run then pays the whole re-expansion (extra major
   slices) inside its wall-clock window — the 100k sample measured 2-3x
   slower purely from the probe that precedes it. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let sched_counter sched name =
  match List.assoc_opt name sched with
  | Some (Tock_obs.Metrics.Counter n) -> n
  | _ -> 0

let run_once (cfg : Tock_fleet.Fleet.config) =
  let base = live_words () in
  let t0 = Harness.now_ns () in
  let result = Tock_fleet.Fleet.run_fleet cfg in
  let wall_ns = Harness.now_ns () - t0 in
  let stats = result.Tock_fleet.Fleet.fr_stats in
  let c = sched_counter result.Tock_fleet.Fleet.fr_sched in
  (* [stats] is consumed below, so it is live across this probe. *)
  let retained_words = live_words () - base in
  {
    wall_ns;
    cycles = Tock_fleet.Fleet.total_cycles stats;
    syscalls = Tock_fleet.Fleet.total_syscalls stats;
    bytes_per_board = max 0 (retained_words * (Sys.word_size / 8) / cfg.boards);
    parks = c "fleet.sched.board_parks";
    resumes = c "fleet.sched.board_resumes";
    resume_cycles = c "fleet.sched.resume_cycles";
    witness_bytes = c "fleet.sched.witness_bytes";
  }

let rate r = float_of_int r.cycles *. 1e9 /. float_of_int r.wall_ns

(* park_min_quanta = 3 at the default 250k batch puts the park threshold
   at 750k cycles — above the short alarm/IO waits every board hits
   constantly, below the sensor-logger sleep periods (~900k cycles), so
   boards really freeze into witnesses and thaw back mid-run without
   every short nap paying a rebuild. It is read only when [park] is on.

   Gates read the median run: [floor] on cycles/s; for a park sample,
   boards must really park and every parked board resume (every mode),
   within the bytes/board ceiling (full mode). *)
let measure h ?floor ~park ~boards ~domains ~cycles () =
  let cfg =
    { Tock_fleet.Fleet.default with boards; domains; cycles; park; park_min_quanta = 3 }
  in
  (* Warm the minor heap/domain pool once so the first timed run isn't
     charged for spawn cost the steady state doesn't pay. *)
  ignore (Tock_fleet.Fleet.run_fleet { cfg with boards = min boards 4; cycles = 10_000 });
  let runs = List.init Harness.reps (fun _ -> run_once cfg) in
  let median f = Stats.median (List.map (fun r -> float_of_int (f r)) runs) in
  let rates = List.map rate runs in
  let median_rate = Stats.median rates and best_rate = List.fold_left Float.max 0. rates in
  let bytes = median (fun r -> r.bytes_per_board) in
  let parks = median (fun r -> r.parks) and resumes = median (fun r -> r.resumes) in
  let name = Printf.sprintf "fleet/%dx%d%s" boards domains (if park then "-park" else "") in
  let agg_cycles = (List.hd runs).cycles in
  ignore
    (Harness.add h name ~iters:agg_cycles ~calls:(Harness.reps * agg_cycles)
       ~fields:
         [
           ("boards", Harness.int boards);
           ("domains", Harness.int domains);
           ("park", Json.Bool park);
           ("cycles", Harness.int cycles);
           ("agg_cycles", Harness.int agg_cycles);
           ("syscalls", Json.Num (median (fun r -> r.syscalls)));
           ("wall_s", Json.Num (median (fun r -> r.wall_ns) *. 1e-9));
           ("cycles_per_s", Json.Num best_rate);
           ("cycles_per_s_median", Json.Num median_rate);
           ("bytes_per_board", Json.Num bytes);
           ("parks", Json.Num parks);
           ("resumes", Json.Num resumes);
           ("resume_cycles", Json.Num (median (fun r -> r.resume_cycles)));
           ("witness_bytes", Json.Num (median (fun r -> r.witness_bytes)));
         ]
       (List.map (fun r -> float_of_int r.wall_ns /. float_of_int r.cycles) runs));
  Printf.printf "          %.3e cyc/s (median %.3e), %.0f B/board%s\n%!" best_rate
    median_rate bytes
    (if park then Printf.sprintf ", %.0f parks, %.0f resumes" parks resumes else "");
  Option.iter
    (Harness.gate h ~mode:Harness.Full_only (name ^ " median cycles/s") median_rate
       Harness.Ge)
    floor;
  if park then begin
    Harness.gate h (name ^ " parks") parks Harness.Gt 0.;
    Harness.gate h (name ^ " resumes") resumes Harness.Eq parks;
    Harness.gate h ~mode:Harness.Full_only (name ^ " bytes/board") bytes Harness.Le
      (float_of_int gate_bytes_per_board)
  end

let run_mode ~full =
  print_endline
    "== fleet: depth-first scheduler throughput (boards x cycles / wall-second) ==";
  let h = Harness.create ~full "fleet" in
  let n_cores = cores () in
  let cycles = 1_000_000 in
  Printf.printf "   host cores: %d\n%!" n_cores;
  if full then begin
    print_endline "   -- board-count sweep, 1 domain --";
    List.iter
      (fun boards ->
        let floor = List.assoc_opt boards [ (1024, gate_floor); (10_000, gate_floor_10k) ] in
        measure h ?floor ~park:false ~boards ~domains:1 ~cycles ())
      [ 1; 16; 256; 1024; 10_000 ];
    (* Domain counts beyond the core count still run correctly (the
       determinism tests cover 1/2/4 everywhere); on a single-core host
       they only measure stop-the-world safepoint cost, so the sweep is
       skipped there rather than recorded as a misleading sample. *)
    if n_cores = 1 then
      print_endline
        "   -- domains sweep skipped: 1 core (multi-domain samples would \
         measure timeslicing, not scaling) --"
    else begin
      print_endline "   -- domains sweep (1/2/4/8), 256 boards --";
      if n_cores < 8 then
        Printf.printf "   note: only %d core(s); domains > %d timeslice one core.\n%!"
          n_cores n_cores;
      List.iter
        (fun domains -> measure h ~park:false ~boards:256 ~domains ~cycles ())
        [ 1; 2; 4; 8 ]
    end
  end;
  print_endline "   -- park sample (freeze/thaw resume) --";
  measure h ~floor:gate_floor_100k ~park:true
    ~boards:(if full then 100_000 else 256)
    ~domains:1 ~cycles:4_000_000 ();
  Harness.finish h
    ~facts:
      [
        ("cycles_per_group", Harness.int cycles);
        ("batch", Harness.int Tock_fleet.Fleet.default.batch);
        ("cores", Harness.int n_cores);
      ]
    ()

let run () = run_mode ~full:true
let run_smoke () = run_mode ~full:false
