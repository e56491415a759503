(* Observability overhead benchmark: proves the instrumentation layer is
   free when off and cheap when on, and captures a reference latency
   profile from a real board run. Writes BENCH_obs.json through
   [Harness]. Gates:

   - the instrumented Sim hot loop (tracing disabled) stays within 3% of
     a seed-replica loop that carries no observability state at all
     (full mode);
   - counter/histogram/trace-emit primitive costs are sampled so a
     regression in the record path is visible in the JSON history;
   - the disabled-mode Trace.emit is truly free: zero minor-heap words
     per call (every mode), and in full mode both under a 4.50 ns/op
     backstop and under 0.60x the enabled record cost;
   - retiring a board allocates only its packed blob: packed_of on a
     warm registry stays within the blob's words + 8, and
     Accum.add_packed / Rollup.add_packed of an image whose schema was
     seen before allocate nothing (every mode);
   - a 10k-board fleet with health rollups on keeps >= 90% of the
     no-rollup throughput, the two fleets timed run by run in turn
     (full mode; smoke folds a tiny fleet);
   - a board workload's syscall-class and IRQ dispatch latency
     histograms are summarised (p50/p99) as the reference profile.

   The spend gate compares two loops with identical bodies, so it reads
   code placement as much as overhead: both sides are closures timed by
   the same [Harness.time_pair] loop, one indirect call per op, and they
   alternate pass by pass so one-sided host noise cannot make (or hide)
   an overhead.

   Run: dune exec bench/main.exe -- obs
   The `obs-smoke` variant runs tiny iteration counts under
   `dune runtest` so the plumbing (not the host-dependent ratio) is
   exercised on every test run. *)

module Metrics = Tock_obs.Metrics
module Trace = Tock_obs.Trace

(* ---- disabled-mode overhead: instrumented Sim vs a seed replica ---- *)

(* The seed side of the comparison is [Bench_seed_sim]: a frozen,
   field-for-field copy of the pre-observability Sim hot loop, living
   behind its own library boundary so both sides pay the same
   cross-library call cost (see the note in bench/seed_sim).

   Workload: spend in 7-cycle slices while a self-rescheduling event
   fires every 100 cycles — the same probe-mostly-misses,
   occasionally-fires pattern the kernel main loop produces. The two
   sides are timed pass by pass in alternation ([Harness.time_pair])
   and each keeps all its passes; the gate reads each side's best. *)
let bench_spend h ~iters ~rounds =
  let seed = Bench_seed_sim.create ~trace_capacity:1024 () in
  let rec seed_tick () = Bench_seed_sim.at seed ~delay:100 seed_tick in
  Bench_seed_sim.at seed ~delay:100 seed_tick;
  let sim = Tock_hw.Sim.create ~trace_capacity:0 () in
  let rec tick () = ignore (Tock_hw.Sim.at sim ~delay:100 tick) in
  ignore (Tock_hw.Sim.at sim ~delay:100 tick);
  let real, replica =
    Harness.time_pair h ~rounds
      ("spend/instrumented-sim", iters, fun () -> Tock_hw.Sim.spend sim 7)
      ("spend/seed-replica", iters, fun () -> Bench_seed_sim.spend seed 7)
  in
  Harness.gate h ~mode:Harness.Full_only "spend overhead vs seed replica"
    (Harness.ns_per_op real /. Harness.ns_per_op replica)
    Harness.Le 1.03

(* ---- record-path primitive costs, and the disabled emit ---- *)

(* Two emit gates: a relative one (the disabled call must cost well
   under the enabled record path — that is what "truly free" means, and
   it cancels host-speed drift), and an absolute backstop against the
   3.66 ns/op seed measurement, with headroom for the ~25% run-to-run
   frequency jitter the host shows. *)
let bench_primitives h ~iters =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "bench.counter" in
  let hist = Metrics.histogram reg "bench.hist" in
  ignore (Harness.time h "metrics/counter-incr" iters (fun () -> Metrics.incr c));
  let v = ref 1 in
  ignore
    (Harness.time h "metrics/histogram-observe" iters (fun () ->
         Metrics.observe hist !v;
         v := (!v * 5) land 0xFFFF));
  let on = Trace.create ~capacity:4096 in
  let off = Trace.create ~capacity:0 in
  let ts = ref 0 in
  let enabled =
    Harness.time h "trace/emit-enabled" iters (fun () ->
        incr ts;
        Trace.emit on ~ts:!ts ~tid:1 Trace.Syscall Trace.Instant ~arg:2 ~text:"")
  in
  let disabled =
    Harness.time h "trace/emit-disabled" iters (fun () ->
        Trace.emit off ~ts:0 ~tid:1 Trace.Syscall Trace.Instant ~arg:2 ~text:"")
  in
  (* Host-independent: a single capacity load and branch. *)
  let i = ref 0 in
  Harness.gate h "trace/emit-disabled words per 100k calls"
    (Harness.words 100_000 (fun () ->
         incr i;
         Trace.emit off ~ts:!i ~tid:1 Trace.Syscall Trace.Instant ~arg:2 ~text:""))
    Harness.Le 0.;
  Harness.gate h ~mode:Harness.Full_only "trace/emit-disabled ns/op"
    (Harness.ns_per_op disabled) Harness.Le 4.50;
  Harness.gate h ~mode:Harness.Full_only "trace/emit-disabled vs enabled"
    (Harness.ns_per_op disabled /. Harness.ns_per_op enabled)
    Harness.Le 0.60

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

(* ---- retiring a board: pack, merge and roll up without allocating ---- *)

(* A warm registry (its layout already sealed) packs into the blob and
   its record alone; an image whose schema the accumulator or the
   rollup cohort has seen before adds with no allocation at all.
   Host-independent, so gated in smoke mode too. Returns the blob's
   words. *)
let bench_retire_allocs h =
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
  let per_call f = Harness.words calls f /. float_of_int calls in
  Harness.gate h "packed_of words/call"
    (per_call (fun () -> ignore (Sys.opaque_identity (Metrics.packed_of reg))))
    Harness.Le
    (float_of_int (blob_words + 8));
  let acc = Metrics.Accum.create () in
  Metrics.Accum.add_packed acc p;
  Harness.gate h "Accum.add_packed words/call"
    (per_call (fun () -> Metrics.Accum.add_packed acc p))
    Harness.Le 0.;
  let roll = Tock_obs.Rollup.create ~cohorts:1 in
  Tock_obs.Rollup.add_packed roll ~cohort:0 p;
  Harness.gate h "Rollup.add_packed words/call"
    (per_call (fun () -> Tock_obs.Rollup.add_packed roll ~cohort:0 p))
    Harness.Le 0.;
  blob_words

(* ---- fleet health rollups: throughput tax of folding every retiring
   board's packed metrics into cross-board distributions ---- *)

let bench_rollup h ~boards =
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
  let run cfg () = ignore (Tock_fleet.Fleet.run_fleet cfg) in
  let plain, health =
    Harness.time_pair h ~rounds:Harness.reps
      ("fleet/rollups-off", 1, run cfg)
      ("fleet/rollups-on", 1, run { cfg with Tock_fleet.Fleet.health = true })
  in
  (* boards/s with rollups relative to boards/s without *)
  Harness.gate h ~mode:Harness.Full_only "fleet rollup throughput vs off"
    (Harness.ns_per_op plain /. Harness.ns_per_op health)
    Harness.Ge 0.90

(* ---- driver ---- *)

let run_mode ~full ~scale =
  Printf.printf "== obs: observability overhead (scale %.3f) ==\n" scale;
  let h = Harness.create ~full "obs" in
  let it base = max 2 (int_of_float (float_of_int base *. scale)) in
  bench_spend h ~iters:(it 2_000_000) ~rounds:12;
  bench_primitives h ~iters:(it 2_000_000);
  let blob_words = bench_retire_allocs h in
  let rollup_boards = max 100 (int_of_float (10_000.0 *. scale)) in
  bench_rollup h ~boards:rollup_boards;

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
  let int = Harness.int in
  Harness.finish h
    ~facts:
      [
        ("rollup_boards", int rollup_boards);
        ("packed_of_blob_words", int blob_words);
        ("syscall_command_count", int sys.Metrics.hs_count);
        ("syscall_command_p50_cycles", int (q sys 0.5));
        ("syscall_command_p99_cycles", int (q sys 0.99));
        ("irq_dispatch_count", int irq.Metrics.hs_count);
        ("irq_dispatch_p50_cycles", int (q irq 0.5));
        ("irq_dispatch_p99_cycles", int (q irq 0.99));
        ("trace_events", int trace_total);
        ("trace_dropped", int trace_dropped);
      ]
    ()

let run () = run_mode ~full:true ~scale:1.0

(* Tiny iteration counts for `dune runtest`: exercises the whole path —
   replica comparison, record primitives, board profile — without
   asserting the host-dependent ratios. *)
let run_smoke () = run_mode ~full:false ~scale:0.002
