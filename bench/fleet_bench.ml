(* Fleet-scaling benchmark: aggregate simulated-cycle throughput
   (boards x cycles per wall-second) through the deadline-calendar
   scheduler, plus the retained memory footprint per board. Four
   measurements:

     1. board-count sweep at 1 domain (1 .. 10k boards) — the number
        comparable across hosts and against the seed artifact;
     2. domains sweep (1/2/4/8) at a fixed fleet size — scaling shape
        of the work-stealing runner. Skipped on a single-core host,
        where domains > 1 only measure safepoint/timeslicing overhead
        and the samples would be noise, not signal;
     3. a 100k-board sample with [park] on and a batch quantum small
        enough that boards sleeping through an alarm period actually
        freeze into byte witnesses and thaw back — the "can a 100k
        fleet fit AND keep its throughput" datapoint. Resumes are
        O(state) ([Tock.Kernel.thaw]), so the sample carries the same
        cycles/s floor as the 10k one;
     4. acceptance gates, reported as one summary line and a non-zero
        exit on any failure.

   bytes/board = live-heap growth (Gc.compact'd) across the run while
   the result is still held, so it measures exactly what a caller
   keeps: the board_stats array with packed metrics, fleet-wide merged
   snapshots, and any pooled schema/sentinel tables.

   Writes BENCH_fleet.json next to the repo root. *)

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

type sample = {
  s_boards : int;
  s_domains : int;
  s_park : bool;
  s_budget : int;     (* per-group simulated-cycle budget *)
  s_cycles : int;     (* aggregate simulated cycles *)
  s_syscalls : int;
  s_wall : float;
  s_bytes_per_board : int;  (* retained live heap growth / boards *)
  s_parks : int;
  s_resumes : int;
  s_resume_cycles : int;    (* simulated cycles parked boards slept
                               through while frozen *)
  s_witness_bytes : int;    (* peak-free running total of frozen bytes *)
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

let measure ?(park = false) ?batch ?park_min_quanta ~boards ~domains ~cycles ()
    =
  let cfg = { Tock_fleet.Fleet.default with boards; domains; cycles; park } in
  let cfg = match batch with None -> cfg | Some batch -> { cfg with batch } in
  let cfg =
    match park_min_quanta with
    | None -> cfg
    | Some park_min_quanta -> { cfg with park_min_quanta }
  in
  (* Warm the minor heap/domain pool once so the first timed run isn't
     charged for spawn cost the steady state doesn't pay. *)
  ignore (Tock_fleet.Fleet.run { cfg with boards = min boards 4; cycles = 10_000 });
  let base = live_words () in
  let t0 = Unix.gettimeofday () in
  let result = Tock_fleet.Fleet.run_fleet cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let stats = result.Tock_fleet.Fleet.fr_stats in
  let sched = result.Tock_fleet.Fleet.fr_sched in
  (* [stats] is consumed below, so it is live across this probe. *)
  let retained_words = live_words () - base in
  let bytes_per_board =
    max 0 (retained_words * (Sys.word_size / 8) / boards)
  in
  let c = sched_counter sched in
  {
    s_boards = boards;
    s_domains = domains;
    s_park = park;
    s_budget = cycles;
    s_cycles = Tock_fleet.Fleet.total_cycles stats;
    s_syscalls = Tock_fleet.Fleet.total_syscalls stats;
    s_wall = wall;
    s_bytes_per_board = bytes_per_board;
    s_parks = c "fleet.sched.board_parks";
    s_resumes = c "fleet.sched.board_resumes";
    s_resume_cycles = c "fleet.sched.resume_cycles";
    s_witness_bytes = c "fleet.sched.witness_bytes";
  }

let throughput s = float_of_int s.s_cycles /. s.s_wall

let print_sample s =
  Printf.printf "   %6d boards x %d domain(s)%s: %8.3fs  %.3e cyc/s  %5d B/board\n%!"
    s.s_boards s.s_domains
    (if s.s_park then " [park]" else "")
    s.s_wall (throughput s) s.s_bytes_per_board;
  if s.s_park then
    Printf.printf
      "          parks %d  resumes %d  resume_cycles %d  witness_bytes %d\n%!"
      s.s_parks s.s_resumes s.s_resume_cycles s.s_witness_bytes

let json_of_sample s =
  Printf.sprintf
    "    {\"boards\": %d, \"domains\": %d, \"park\": %b, \"cycles\": %d, \
     \"agg_cycles\": %d, \
     \"syscalls\": %d, \"wall_s\": %.4f, \"cycles_per_s\": %.4e, \
     \"bytes_per_board\": %d, \"parks\": %d, \"resumes\": %d, \
     \"resume_cycles\": %d, \"witness_bytes\": %d}"
    s.s_boards s.s_domains s.s_park s.s_budget s.s_cycles s.s_syscalls s.s_wall
    (throughput s) s.s_bytes_per_board s.s_parks s.s_resumes
    s.s_resume_cycles s.s_witness_bytes

let run () =
  print_endline
    "== fleet: deadline-calendar scheduler throughput (boards x cycles / wall-second) ==";
  let n_cores = cores () in
  let cycles = 1_000_000 in
  Printf.printf "   host cores: %d\n%!" n_cores;
  print_endline "   -- board-count sweep, 1 domain --";
  let sweep =
    List.map
      (fun boards ->
        let s = measure ~boards ~domains:1 ~cycles () in
        print_sample s;
        s)
      [ 1; 16; 256; 1024; 10_000 ]
  in
  (* Domain counts beyond the core count still run correctly (the
     determinism tests cover 1/2/4 everywhere); on a single-core host
     they only measure stop-the-world safepoint cost, so the sweep is
     skipped there rather than recorded as a misleading sample. *)
  let domains_sweep =
    if n_cores = 1 then begin
      print_endline
        "   -- domains sweep skipped: 1 core (multi-domain samples would \
         measure timeslicing, not scaling) --";
      []
    end
    else begin
      print_endline "   -- domains sweep (1/2/4/8), 256 boards --";
      if n_cores < 8 then
        Printf.printf
          "   note: only %d core(s); domains > %d timeslice one core.\n%!"
          n_cores n_cores;
      List.map
        (fun domains ->
          let s = measure ~boards:256 ~domains ~cycles () in
          print_sample s;
          s)
        [ 1; 2; 4; 8 ]
    end
  in
  (* 100k boards with parking live: park_min_quanta = 3 at the default
     250k batch puts the park threshold at 750k cycles — above the
     short alarm/IO waits every board hits constantly, below the
     sensor-logger sleep periods (~900k cycles), so tens of thousands
     of boards really freeze into witnesses and thaw back mid-run
     without every short nap paying a rebuild. Both gates apply here:
     throughput (resume must be O(state)) and retained bytes/board. *)
  print_endline "   -- 100k-board park sample (freeze/thaw resume) --";
  let big =
    measure ~park:true ~park_min_quanta:3 ~boards:100_000 ~domains:1
      ~cycles:4_000_000 ()
  in
  print_sample big;
  let samples = sweep @ domains_sweep @ [ big ] in
  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"fleet_scaling\",\n  \"cycles_per_group\": %d,\n  \
     \"batch\": %d,\n  \"cores\": %d,\n  \"gate_cycles_per_s\": %.4e,\n  \
     \"gate_cycles_per_s_10k\": %.4e,\n  \"gate_cycles_per_s_100k_park\": %.4e,\n  \
     \"gate_bytes_per_board\": %d,\n  \
     \"samples\": [\n%s\n  ]\n}\n"
    cycles Tock_fleet.Fleet.default.batch n_cores gate_floor gate_floor_10k
    gate_floor_100k gate_bytes_per_board
    (String.concat ",\n" (List.map json_of_sample samples));
  close_out oc;
  print_endline "   wrote BENCH_fleet.json";
  (* Acceptance gates: >= 10x the seed artifact on its reference
     sample; the 10k sample holds packed-stats throughput; the 100k
     park sample holds freeze/thaw throughput, actually exercises the
     freeze path, and stays within the per-board memory budget. *)
  let ref_sample =
    List.find (fun s -> s.s_boards = 1024 && s.s_domains = 1) sweep
  in
  let s10k =
    List.find (fun s -> s.s_boards = 10_000 && s.s_domains = 1) sweep
  in
  let gates =
    [
      ( "1024-board throughput",
        throughput ref_sample >= gate_floor,
        Printf.sprintf "1024 boards @ 1 domain = %.3e cyc/s (floor %.1e)"
          (throughput ref_sample) gate_floor );
      ( "10k-board throughput",
        throughput s10k >= gate_floor_10k,
        Printf.sprintf "10k boards @ 1 domain = %.3e cyc/s (floor %.1e)"
          (throughput s10k) gate_floor_10k );
      ( "100k-board park throughput",
        throughput big >= gate_floor_100k,
        Printf.sprintf "100k boards [park] = %.3e cyc/s (floor %.1e)"
          (throughput big) gate_floor_100k );
      ( "100k-board parks happen",
        big.s_parks > 0 && big.s_resumes = big.s_parks,
        Printf.sprintf "100k boards [park] = %d parks / %d resumes"
          big.s_parks big.s_resumes );
      ( "100k-board bytes/board",
        big.s_bytes_per_board <= gate_bytes_per_board,
        Printf.sprintf "100k boards [park] = %d bytes/board (ceiling %d)"
          big.s_bytes_per_board gate_bytes_per_board );
    ]
  in
  List.iter
    (fun (_, ok, detail) ->
      Printf.printf "   gate: %s: %s\n%!" detail (if ok then "PASS" else "FAIL"))
    gates;
  let failed = List.filter (fun (_, ok, _) -> not ok) gates in
  Printf.printf "   fleet gates: %d/%d passed%s\n%!"
    (List.length gates - List.length failed)
    (List.length gates)
    (match failed with
    | [] -> " — PASS"
    | fs ->
        " — FAIL: " ^ String.concat ", " (List.map (fun (n, _, _) -> n) fs));
  if failed <> [] then exit 1;
  print_newline ()
