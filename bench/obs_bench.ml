(* Observability overhead benchmark: proves the instrumentation layer is
   free when off and cheap when on, and captures a reference latency
   profile from a real board run. Writes BENCH_obs.json for the
   acceptance gate:

   - the instrumented Sim hot loop (tracing disabled) stays within 3% of
     a seed-replica loop that carries no observability state at all
     (asserted in full mode);
   - counter/histogram/trace-emit primitive costs are sampled so a
     regression in the record path is visible in the JSON history;
   - the disabled-mode Trace.emit is truly free: zero minor-heap words
     per call (asserted in every mode), and in full mode both under a
     4.50 ns/op backstop and under 0.60x the enabled record cost;
   - retiring a board allocates only its packed blob: packed_of on a
     warm registry stays within the blob's words + 8, and
     Accum.add_packed / Rollup.add_packed of an image whose schema was
     seen before allocate nothing (asserted in every mode);
   - a 10k-board fleet with health rollups on keeps >= 90% of the
     no-rollup throughput (full mode; smoke folds a tiny fleet);
   - a board workload's syscall-class and IRQ dispatch latency
     histograms are summarised (p50/p99) as the reference profile.

   Layout note: the spend gate compares two nominally identical hot
   loops, so it is sensitive to code placement in this file — new
   measurement code belongs BELOW bench_board, leaving time_ns /
   bench_spend / bench_primitives byte-identical and at the same object
   offsets as the seed revision.

   Run: dune exec bench/main.exe -- obs
   The `obs-smoke` variant runs tiny iteration counts under
   `dune runtest` so the plumbing (not the host-dependent ratio) is
   exercised on every test run. *)

module Metrics = Tock_obs.Metrics
module Trace = Tock_obs.Trace

(* Min-of-reps host timing, as in the iopath bench. *)
let time_ns f n =
  for _ = 1 to min n 100 do
    f ()
  done;
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    let t1 = Unix.gettimeofday () in
    let ns = (t1 -. t0) *. 1e9 /. float_of_int n in
    if ns < !best then best := ns
  done;
  !best

type sample = { s_name : string; s_ns : float; s_iters : int }

let json_of_sample s =
  Printf.sprintf "    {\"name\": \"%s\", \"ns_per_op\": %.2f, \"iters\": %d}"
    s.s_name s.s_ns s.s_iters

(* ---- disabled-mode overhead: instrumented Sim vs a seed replica ---- *)

(* The seed side of the comparison is [Bench_seed_sim]: a frozen,
   field-for-field copy of the pre-observability Sim hot loop, living
   behind its own library boundary so both sides pay the same
   cross-library call cost (see the note in bench/seed_sim).

   Workload: spend in 7-cycle slices while a self-rescheduling event
   fires every 100 cycles — the same probe-mostly-misses,
   occasionally-fires pattern the kernel main loop produces. The two
   sides are timed in alternation and each keeps its best rep, so
   one-sided scheduler noise cannot manufacture (or hide) an overhead. *)
let bench_spend ~iters ~alternations =
  let seed = Bench_seed_sim.create ~trace_capacity:1024 () in
  let rec seed_tick () = Bench_seed_sim.at seed ~delay:100 seed_tick in
  Bench_seed_sim.at seed ~delay:100 seed_tick;
  let sim = Tock_hw.Sim.create ~trace_capacity:0 () in
  let rec tick () = ignore (Tock_hw.Sim.at sim ~delay:100 tick) in
  ignore (Tock_hw.Sim.at sim ~delay:100 tick);
  let best_seed = ref infinity and best_real = ref infinity in
  for _ = 1 to alternations do
    let r = time_ns (fun () -> Tock_hw.Sim.spend sim 7) iters in
    if r < !best_real then best_real := r;
    let s = time_ns (fun () -> Bench_seed_sim.spend seed 7) iters in
    if s < !best_seed then best_seed := s
  done;
  (!best_seed, !best_real)

(* ---- enabled-mode primitive costs ---- *)

let bench_primitives ~iters note =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "bench.counter" in
  let h = Metrics.histogram reg "bench.hist" in
  note "metrics/counter-incr" (time_ns (fun () -> Metrics.incr c) iters) iters;
  let v = ref 1 in
  note "metrics/histogram-observe"
    (time_ns
       (fun () ->
         Metrics.observe h !v;
         v := (!v * 5) land 0xFFFF)
       iters)
    iters;
  let on = Trace.create ~capacity:4096 in
  let off = Trace.create ~capacity:0 in
  let ts = ref 0 in
  note "trace/emit-enabled"
    (time_ns
       (fun () ->
         incr ts;
         Trace.emit on ~ts:!ts ~tid:1 Trace.Syscall Trace.Instant ~arg:2
           ~text:"")
       iters)
    iters;
  note "trace/emit-disabled"
    (time_ns
       (fun () ->
         Trace.emit off ~ts:0 ~tid:1 Trace.Syscall Trace.Instant ~arg:2
           ~text:"")
       iters)
    iters

(* ---- board workload: reference latency profile ---- *)

let find_hist snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Histogram hs) -> hs
  | _ -> failwith ("obs: missing histogram " ^ name)

let bench_board ~seconds =
  let sim = Tock_hw.Sim.create ~trace_capacity:4096 () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  ignore
    (Tock_boards.Board.add_app board ~name:"counter"
       (Tock_userland.Apps.counter ~n:8 ~period_ticks:200));
  ignore
    (Tock_boards.Board.add_app board ~name:"blink"
       (Tock_userland.Apps.blink ~led:0 ~period_ticks:150 ~blinks:8));
  let budget =
    int_of_float (float_of_int (Tock_hw.Sim.clock_hz sim) *. seconds)
  in
  ignore
    (Tock_boards.Board.run_until board ~max_cycles:budget (fun () ->
         Tock_boards.Board.all_processes_done board));
  let snap =
    Metrics.merge
      [
        Tock.Kernel.metrics_snapshot board.Tock_boards.Board.kernel;
        Metrics.snapshot (Tock_hw.Sim.metrics sim);
      ]
  in
  let sys = find_hist snap "kernel.syscall_cycles.command" in
  let irq = find_hist snap "irq.dispatch_cycles" in
  if sys.Metrics.hs_count = 0 then failwith "obs: board made no command calls";
  if irq.Metrics.hs_count = 0 then failwith "obs: board serviced no IRQs";
  let tr = Tock_hw.Sim.trace_events sim in
  (sys, irq, Trace.total tr, Trace.dropped tr)

(* ---- disabled-mode Trace.emit: truly free ---- *)

(* The disabled emit must be a single capacity load and branch: zero
   words allocated across any number of calls. Host-independent, so it
   is asserted in smoke mode too. *)
let assert_emit_disabled_allocfree () =
  let off = Trace.create ~capacity:0 in
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    Trace.emit off ~ts:i ~tid:1 Trace.Syscall Trace.Instant ~arg:2 ~text:""
  done;
  let words = Gc.minor_words () -. before in
  Printf.printf "   emit-disabled allocation: %.0f words / 100k calls\n" words;
  if words > 0.0 then
    failwith "obs: disabled Trace.emit allocated on the minor heap"

(* ---- retiring a board: pack, merge and roll up without allocating ---- *)

(* A warm registry (its layout already sealed) packs into the blob and
   its record alone; an image whose schema the accumulator or the
   rollup cohort has seen before adds with no allocation at all.
   Host-independent, so asserted in smoke mode too. Returns the words
   per call of packed_of, its blob's words, then the words per call of
   Accum.add_packed and Rollup.add_packed. *)
let assert_retire_allocs () =
  let sim = Tock_hw.Sim.create ~trace_capacity:0 () in
  let board = Tock_boards.Board.build (Tock_hw.Chip.sam4l_like sim) in
  ignore
    (Tock_boards.Board.add_app board ~name:"counter"
       (Tock_userland.Apps.counter ~n:8 ~period_ticks:200));
  ignore
    (Tock_boards.Board.add_app board ~name:"blink"
       (Tock_userland.Apps.blink ~led:0 ~period_ticks:150 ~blinks:8));
  ignore
    (Tock_boards.Board.run_until board ~max_cycles:400_000 (fun () ->
         Tock_boards.Board.all_processes_done board));
  let reg = Tock.Kernel.metrics board.Tock_boards.Board.kernel in
  let p = Metrics.packed_of reg in
  let blob_words = String.length p.Metrics.p_blob / 8 in
  let calls = 1_000 in
  let words_per_call f =
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let pack_words =
    words_per_call (fun () -> ignore (Sys.opaque_identity (Metrics.packed_of reg)))
  in
  let acc = Metrics.Accum.create () in
  Metrics.Accum.add_packed acc p;
  let accum_words = words_per_call (fun () -> Metrics.Accum.add_packed acc p) in
  let roll = Tock_obs.Rollup.create ~cohorts:1 in
  Tock_obs.Rollup.add_packed roll ~cohort:0 p;
  let rollup_words =
    words_per_call (fun () -> Tock_obs.Rollup.add_packed roll ~cohort:0 p)
  in
  Printf.printf
    "   retire allocation: packed_of %.0f words (blob %d, gate <= %d), \
     Accum.add_packed %.0f, Rollup.add_packed %.0f (gates 0)\n"
    pack_words blob_words (blob_words + 8) accum_words rollup_words;
  if pack_words > float_of_int (blob_words + 8) then
    failwith "obs: packed_of on a warm registry allocated beyond its blob";
  if accum_words > 0.0 then
    failwith "obs: Accum.add_packed with a seen schema allocated";
  if rollup_words > 0.0 then
    failwith "obs: Rollup.add_packed with a seen schema allocated";
  (pack_words, blob_words, accum_words, rollup_words)

(* ---- fleet health rollups: throughput tax of folding every retiring
   board's packed metrics into cross-board distributions ---- *)

let bench_rollup ~boards =
  let cfg =
    {
      Tock_fleet.Fleet.default with
      Tock_fleet.Fleet.boards;
      group_size = 1;
      cycles = 160_000;
      batch = 50_000;
      park = true;
    }
  in
  let time f =
    let best = ref infinity in
    for _ = 1 to 2 do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let plain_s = time (fun () -> ignore (Tock_fleet.Fleet.run_fleet cfg)) in
  let health_s =
    time (fun () ->
        ignore
          (Tock_fleet.Fleet.run_fleet
             { cfg with Tock_fleet.Fleet.health = true }))
  in
  (* boards/s with rollups relative to boards/s without *)
  (plain_s, health_s, plain_s /. health_s)

(* ---- driver ---- *)

let run_mode ~scale ~assert_ratios ~write () =
  Printf.printf "== obs: observability overhead (scale %.3f) ==\n" scale;
  let it base = max 2 (int_of_float (float_of_int base *. scale)) in
  let samples = ref [] in
  let note name ns iters =
    samples := { s_name = name; s_ns = ns; s_iters = iters } :: !samples;
    Printf.printf "   %-28s %12.1f ns/op\n%!" name ns
  in

  (* -- spend hot loop: instrumented Sim vs seed replica -- *)
  let n = it 2_000_000 in
  let replica_ns, real_ns = bench_spend ~iters:n ~alternations:4 in
  note "spend/seed-replica" replica_ns n;
  note "spend/instrumented-sim" real_ns n;
  let ratio = real_ns /. replica_ns in
  Printf.printf "   disabled-mode spend overhead: %.3fx (gate <= 1.03x)\n"
    ratio;
  if assert_ratios && ratio > 1.03 then
    failwith "obs: disabled-mode Sim.spend overhead above the 3% gate";

  (* -- record-path primitive costs -- *)
  bench_primitives ~iters:(it 2_000_000) note;

  (* -- disabled-mode emit: allocation-free, and gated -- *)
  assert_emit_disabled_allocfree ();
  let pack_words, blob_words, accum_words, rollup_words =
    assert_retire_allocs ()
  in
  let sample name =
    match List.find_opt (fun s -> s.s_name = name) !samples with
    | Some s -> s.s_ns
    | None -> failwith ("obs: missing sample " ^ name)
  in
  let emit_disabled_ns = sample "trace/emit-disabled" in
  let emit_enabled_ns = sample "trace/emit-enabled" in
  let emit_ratio = emit_disabled_ns /. emit_enabled_ns in
  (* Two gates: a relative one (the disabled call must cost well under
     the enabled record path — that is what "truly free" means and it
     cancels host-speed drift on this single-core VM), and an absolute
     backstop vs the 3.66 ns/op seed measurement, set with headroom for
     the ~25% run-to-run frequency jitter the host shows. *)
  Printf.printf
    "   emit-disabled: %.2f ns/op, %.2fx enabled (gates <= 4.50 ns, <= 0.60x)\n"
    emit_disabled_ns emit_ratio;
  if assert_ratios && emit_disabled_ns > 4.50 then
    failwith "obs: disabled Trace.emit above the 4.50 ns/op backstop";
  if assert_ratios && emit_ratio > 0.60 then
    failwith "obs: disabled Trace.emit not well under the enabled cost";

  (* -- fleet health rollups: >= 90% of no-rollup throughput -- *)
  let rollup_boards = max 100 (int_of_float (10_000.0 *. scale)) in
  let plain_s, health_s, rollup_ratio = bench_rollup ~boards:rollup_boards in
  Printf.printf
    "   fleet %d boards: %.3fs plain, %.3fs with rollups -> %.3fx throughput \
     (gate >= 0.90)\n"
    rollup_boards plain_s health_s rollup_ratio;
  if assert_ratios && rollup_ratio < 0.90 then
    failwith "obs: health rollups cost more than 10% of fleet throughput";

  (* -- board workload latency profile -- *)
  let seconds = Float.max 0.02 (0.5 *. scale) in
  let sys, irq, trace_total, trace_dropped = bench_board ~seconds in
  let q hs p = Metrics.quantile hs p in
  Printf.printf
    "   board (%.2f sim-s): %d command syscalls p50<=%d p99<=%d cycles\n"
    seconds sys.Metrics.hs_count (q sys 0.5) (q sys 0.99);
  Printf.printf "   irq dispatch: %d serviced, p50<=%d p99<=%d cycles\n"
    irq.Metrics.hs_count (q irq 0.5) (q irq 0.99);
  Printf.printf "   trace: %d events, %d dropped\n" trace_total trace_dropped;

  if write then begin
    let oc = open_out "BENCH_obs.json" in
    Printf.fprintf oc
      "{\n  \"bench\": \"obs\",\n  \
       \"spend_overhead_ratio\": %.4f,\n  \
       \"spend_overhead_gate\": 1.03,\n  \
       \"emit_disabled_ns\": %.2f,\n  \
       \"emit_disabled_gate_ns\": 4.50,\n  \
       \"emit_disabled_enabled_ratio\": %.4f,\n  \
       \"emit_disabled_enabled_gate\": 0.60,\n  \
       \"rollup_boards\": %d,\n  \
       \"rollup_throughput_ratio\": %.4f,\n  \
       \"rollup_throughput_gate\": 0.90,\n  \
       \"packed_of_words\": %.0f,\n  \
       \"packed_of_blob_words\": %d,\n  \
       \"packed_of_gate_words\": %d,\n  \
       \"accum_add_packed_words\": %.0f,\n  \
       \"rollup_add_packed_words\": %.0f,\n  \
       \"add_packed_gate_words\": 0,\n  \
       \"syscall_command_count\": %d,\n  \
       \"syscall_command_p50_cycles\": %d,\n  \
       \"syscall_command_p99_cycles\": %d,\n  \
       \"irq_dispatch_count\": %d,\n  \
       \"irq_dispatch_p50_cycles\": %d,\n  \
       \"irq_dispatch_p99_cycles\": %d,\n  \
       \"trace_events\": %d,\n  \
       \"trace_dropped\": %d,\n  \"samples\": [\n%s\n  ]\n}\n"
      ratio emit_disabled_ns emit_ratio rollup_boards rollup_ratio
      pack_words blob_words (blob_words + 8) accum_words rollup_words
      sys.Metrics.hs_count (q sys 0.5) (q sys 0.99)
      irq.Metrics.hs_count (q irq 0.5) (q irq 0.99) trace_total trace_dropped
      (String.concat ",\n" (List.rev_map json_of_sample !samples));
    close_out oc;
    print_endline "   wrote BENCH_obs.json"
  end;
  print_newline ()

let run () = run_mode ~scale:1.0 ~assert_ratios:true ~write:true ()

(* Tiny iteration counts for `dune runtest`: exercises the whole path —
   replica comparison, record primitives, board profile — without
   asserting the host-dependent ratio. *)
let run_smoke () = run_mode ~scale:0.002 ~assert_ratios:false ~write:false ()
