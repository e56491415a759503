(* The benchmark harness: regenerates every figure/claim analogue from
   DESIGN.md section 3 (paper-expectation printed alongside the
   measurement) and finishes with the host-time benches (datapath,
   iopath, obs, fleet), which measure, gate and write BENCH_*.json
   through [Harness].

   Run: dune exec bench/main.exe
   Pass experiment ids (fig1, fig2, ..., e-aliasing, datapath) to run a
   subset. *)

let experiments =
  [
    ("fig1", Figures.print);
    ("fig2", Experiments.fig2_isolation_cost);
    ("fig3", Experiments.fig3_composition);
    ("fig4", Experiments.fig4_subslice);
    ("fig5", Loc_analysis.print);
    ("e-async-sleep", Experiments.e_async_sleep);
    ("e-syscall-patterns", Experiments.e_syscall_patterns);
    ("e-v2-soundness", Experiments.e_v2_soundness);
    ("e-allow-ro", Experiments.e_allow_ro);
    ("e-process-load", Experiments.e_process_load);
    ("e-grant-exhaustion", Experiments.e_grant_exhaustion);
    ("e-timer-virt", Experiments.e_timer_virt);
    ("e-aliasing", Experiments.e_aliasing);
    ("a-scheduler", Ablations.a_scheduler);
    ("a-mpu", Ablations.a_mpu);
    ("a-upcall-queue", Ablations.a_upcall_queue);
    ("datapath", Datapath.run);
    ("datapath-smoke", Datapath.run_smoke);
    ("iopath", Iopath.run);
    ("iopath-smoke", Iopath.run_smoke);
    ("obs", Obs_bench.run);
    ("obs-smoke", Obs_bench.run_smoke);
    ("fleet", Fleet_bench.run);
    ("fleet-smoke", Fleet_bench.run_smoke);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with [] | [ _ ] -> None | _ :: args -> Some args
  in
  let to_run =
    match requested with
    | None -> experiments
    | Some names -> List.filter (fun (n, _) -> List.mem n names) experiments
  in
  if to_run = [] then begin
    print_endline "unknown experiment; available:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) experiments;
    exit 1
  end;
  print_endline "otock benchmark harness -- reproducing the paper's figures/claims";
  print_endline "(shape, not absolute numbers: the substrate is a simulator)";
  print_newline ();
  List.iter (fun (_, f) -> f ()) to_run
