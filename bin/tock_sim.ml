(* tock_sim: command-line driver for the simulated Tock platform.

   Subcommands:
     run       boot a single board with a selection of apps
     signpost  run the multi-node urban-sensing deployment
     fleet     run many boards in parallel across domains
     rot        run the signed-boot root-of-trust scenario
     apps       list the available applications
     postmortem render a TCKFLT02 flight artifact and thaw its witness

   Examples:
     tock_sim run --chip sam4l --app hello --app counter --scheduler mlfq
     tock_sim signpost --nodes 3 --seconds 1
     tock_sim fleet --boards 256 --domains 8 --health
     tock_sim fleet --boards 64 --fault-board 3 --flight-dir /tmp/flights
     tock_sim postmortem /tmp/flights/flt-board00003-fault.tckflt
     tock_sim rot --tamper *)

open Cmdliner

let app_catalog =
  [
    ("hello", "print a greeting and exit", fun () -> Tock_userland.Apps.hello);
    ( "counter",
      "print 5 numbered lines, sleeping between them",
      fun () -> Tock_userland.Apps.counter ~n:5 ~period_ticks:200 );
    ( "blink",
      "blink LED 0 eight times",
      fun () -> Tock_userland.Apps.blink ~led:0 ~period_ticks:150 ~blinks:8 );
    ( "sensor-logger",
      "duty-cycled temperature logging",
      fun () -> Tock_userland.Apps.sensor_logger ~samples:5 ~period_ticks:1000 );
    ( "kv",
      "key-value store roundtrips",
      fun () -> Tock_userland.Apps.kv_user ~rounds:8 );
    ("hog", "exhaust own memory, prove containment", fun () -> Tock_userland.Apps.memory_hog);
    ( "faulty",
      "dereference a wild pointer after a delay",
      fun () -> Tock_userland.Apps.fault_injector ~delay_ticks:200 );
    ("spinner", "burn CPU forever", fun () -> Tock_userland.Apps.spinner);
  ]

let lookup_app name = List.find_opt (fun (n, _, _) -> n = name) app_catalog

let print_stats board =
  let s = Tock.Kernel.stats board.Tock_boards.Board.kernel in
  let sim = board.Tock_boards.Board.sim in
  Printf.printf "--- kernel stats ---\n";
  Printf.printf
    "syscalls=%d switches=%d upcalls=%d sleeps=%d faults=%d restarts=%d\n"
    s.Tock.Kernel.syscalls s.Tock.Kernel.context_switches
    s.Tock.Kernel.upcalls_delivered s.Tock.Kernel.sleeps s.Tock.Kernel.faults
    s.Tock.Kernel.restarts;
  let active = Tock_hw.Sim.active_cycles sim
  and asleep = Tock_hw.Sim.sleep_cycles sim in
  Printf.printf "cpu: %d active / %d asleep cycles (%.1f%% sleeping)\n" active
    asleep
    (100. *. float_of_int asleep /. float_of_int (max 1 (active + asleep)));
  Printf.printf "energy: %.1f uJ total\n" (Tock_hw.Sim.total_microjoules sim)

let print_processes board =
  Printf.printf "--- processes ---\n";
  List.iter
    (fun p ->
      Printf.printf "  %-14s %s (restarts=%d, syscalls=%d)\n"
        (Tock.Process.name p)
        (match Tock.Process.state p with
        | Tock.Process.Terminated { code } -> Printf.sprintf "terminated(%d)" code
        | Tock.Process.Faulted _ -> "faulted"
        | Tock.Process.Runnable | Tock.Process.Yielded
        | Tock.Process.Yielded_for _ | Tock.Process.Blocked_command _ ->
            "running"
        | Tock.Process.Unstarted -> "unstarted"
        | Tock.Process.Stopped _ -> "stopped")
        (Tock.Process.restart_count p)
        (Tock.Process.syscall_count p))
    (Tock.Kernel.processes board.Tock_boards.Board.kernel)

(* Combined metrics surface: the kernel registry (syscalls, drivers,
   processes) merged with the Sim's hardware-side registry (IRQ latency,
   timer fires, trace drops). *)
let print_metrics board =
  let snap =
    Tock_obs.Metrics.merge
      [
        Tock.Kernel.metrics_snapshot board.Tock_boards.Board.kernel;
        Tock_obs.Metrics.snapshot
          (Tock_hw.Sim.metrics board.Tock_boards.Board.sim);
      ]
  in
  Printf.printf "--- metrics ---\n%s" (Tock_obs.Metrics.render_text snap)

let write_trace board path =
  let kernel = board.Tock_boards.Board.kernel in
  let sim = board.Tock_boards.Board.sim in
  let tid_names =
    (-1, "kernel")
    :: List.map
         (fun p -> (Tock.Process.id p, Tock.Process.name p))
         (Tock.Kernel.processes kernel)
  in
  let json =
    Tock_obs.Trace.to_chrome_json ~pid:0 ~process_name:"board" ~tid_names
      ~clock_hz:(Tock_hw.Sim.clock_hz sim)
      (Tock_hw.Sim.trace_events sim)
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "trace: %d events (%d dropped) -> %s\n"
    (Tock_obs.Trace.retained (Tock_hw.Sim.trace_events sim))
    (Tock_obs.Trace.dropped (Tock_hw.Sim.trace_events sim))
    path

(* ---- run ---- *)

let run_cmd chip_name apps scheduler seconds seed strace metrics trace_out =
  (* A deep trace ring when we are exporting; the default ring keeps
     only the latest events, not a full timeline. *)
  let trace_capacity =
    match trace_out with Some _ -> 262_144 | None -> 1024
  in
  let sim = Tock_hw.Sim.create ~seed:(Int64.of_int seed) ~trace_capacity () in
  let chip =
    match chip_name with
    | "sam4l" -> Tock_hw.Chip.sam4l_like sim
    | "rv32" -> Tock_hw.Chip.rv32_like sim
    | other -> failwith ("unknown chip: " ^ other)
  in
  let sched =
    match scheduler with
    | "rr" -> Tock.Scheduler.round_robin ()
    | "coop" -> Tock.Scheduler.cooperative ()
    | "priority" -> Tock.Scheduler.priority ()
    | "mlfq" -> Tock.Scheduler.mlfq ()
    | other -> failwith ("unknown scheduler: " ^ other)
  in
  let config = { (Tock.Kernel.default_config ()) with Tock.Kernel.scheduler = sched } in
  let board = Tock_boards.Board.build ~config chip in
  if strace then
    Tock.Kernel.set_syscall_trace board.Tock_boards.Board.kernel
      (Some
         (fun proc call ret ->
           Printf.printf "[%10d] %s: %s%s\n"
             (Tock_hw.Sim.now sim)
             (Tock.Process.name proc)
             (Format.asprintf "%a" Tock.Syscall.pp_call call)
             (match ret with
             | Some r -> Format.asprintf " = %a" Tock.Syscall.pp_ret r
             | None -> " (blocked)")));
  List.iter
    (fun name ->
      match lookup_app name with
      | Some (_, _, mk) -> (
          match Tock_boards.Board.add_app board ~name (mk ()) with
          | Ok _ -> ()
          | Error e ->
              Printf.eprintf "cannot load %s: %s\n" name (Tock.Error.to_string e))
      | None -> Printf.eprintf "unknown app %s (see `tock_sim apps`)\n" name)
    apps;
  let budget = int_of_float (float_of_int (Tock_hw.Sim.clock_hz sim) *. seconds) in
  ignore
    (Tock_boards.Board.run_until board ~max_cycles:budget (fun () ->
         Tock_boards.Board.all_processes_done board));
  Printf.printf "--- console ---\n%s" (Tock_boards.Board.output board);
  print_processes board;
  print_stats board;
  if metrics then print_metrics board;
  Option.iter (write_trace board) trace_out

(* ---- signpost ---- *)

let signpost_cmd nodes seconds seed =
  let net =
    Tock_boards.Signpost_board.create ~seed:(Int64.of_int seed) ~loss_prob:0.05
      ~nodes:(nodes + 1) ()
  in
  let all = net.Tock_boards.Signpost_board.nodes in
  let gateway, sensors =
    match all with g :: rest -> (g, rest) | [] -> assert false
  in
  ignore
    (Tock_boards.Board.add_app gateway.Tock_boards.Signpost_board.node_board
       ~name:"sink"
       (Tock_userland.Apps.radio_sink ~expect:(2 * List.length sensors)));
  List.iteri
    (fun i n ->
      ignore
        (Tock_boards.Board.add_app n.Tock_boards.Signpost_board.node_board
           ~name:(Printf.sprintf "beacon%d" i)
           (Tock_userland.Apps.radio_beacon ~frames:3
              ~period_ticks:(700 + (61 * i)))))
    sensors;
  let budget =
    int_of_float (float_of_int (Tock_hw.Sim.clock_hz net.Tock_boards.Signpost_board.sim) *. seconds)
  in
  Tock_boards.Signpost_board.run_all net ~max_cycles:budget;
  List.iteri
    (fun i n ->
      Printf.printf "--- node %d ---\n%s" i
        (Tock_boards.Board.output n.Tock_boards.Signpost_board.node_board))
    all;
  let e = net.Tock_boards.Signpost_board.ether in
  Printf.printf "--- medium ---\ndelivered=%d lost=%d collisions=%d\n"
    (Tock_hw.Radio.Ether.delivered e)
    (Tock_hw.Radio.Ether.lost e)
    (Tock_hw.Radio.Ether.collisions e);
  Printf.printf "total energy: %.1f uJ\n"
    (Tock_boards.Signpost_board.total_energy_uj net)

(* ---- fleet ---- *)

let run_fleet cfg ~quiet ~metrics ~trace_out =
  let t0 = Unix.gettimeofday () in
  let result = Tock_fleet.Fleet.run_fleet cfg in
  let stats = result.Tock_fleet.Fleet.fr_stats
  and sched = result.Tock_fleet.Fleet.fr_sched in
  let wall = Unix.gettimeofday () -. t0 in
  if not quiet then
    Array.iter
      (fun bs -> Format.printf "%a@." Tock_fleet.Fleet.pp_board_stats bs)
      stats;
  let cycles_total = Tock_fleet.Fleet.total_cycles stats in
  Printf.printf
    "fleet: %d boards (%d groups) on %d domain(s): %d cycles, %d syscalls, \
     %.3fs wall, %.2e cycles/s\n"
    cfg.Tock_fleet.Fleet.boards
    (Tock_fleet.Fleet.group_count cfg)
    cfg.Tock_fleet.Fleet.domains cycles_total
    (Tock_fleet.Fleet.total_syscalls stats)
    wall
    (float_of_int cycles_total /. wall);
  if metrics then begin
    Printf.printf "--- scheduler ---\n%s" (Tock_obs.Metrics.render_text sched);
    Printf.printf "--- fleet metrics (all boards) ---\n%s"
      (Tock_obs.Metrics.render_text result.Tock_fleet.Fleet.fr_metrics)
  end;
  (match result.Tock_fleet.Fleet.fr_health with
  | Some rp -> print_string (Tock_fleet.Fleet.Rollup.render_text rp)
  | None -> ());
  (match (trace_out, result.Tock_fleet.Fleet.fr_trace_json) with
  | Some path, Some json ->
      let oc = open_out path in
      output_string oc json;
      close_out oc;
      let dlanes, blanes = result.Tock_fleet.Fleet.fr_trace_lanes in
      Printf.printf "trace: %d domain lane(s) + %d board lane(s) -> %s\n"
        dlanes blanes path
  | _ -> ());
  List.iter
    (fun (path, a) ->
      Printf.printf "flight: %s (%s)\n" path
        (Tock_fleet.Flight.describe_cause a.Tock_fleet.Flight.fa_cause))
    result.Tock_fleet.Fleet.fr_flights

(* A config the fleet would reject is a usage error (exit 124) naming
   the problem, found before anything runs. *)
let fleet_cmd boards domains group_size cycles batch seed park park_min_quanta
    verify_park quiet metrics health trace_out trace_boards flight_dir
    fault_board =
  let count =
    match domains with
    | "auto" -> Some (max 1 (Domain.recommended_domain_count ()))
    | s -> int_of_string_opt s
  in
  match count with
  | None ->
      `Error (true, Printf.sprintf "--domains expects a count or 'auto', got '%s'" domains)
  | Some domains -> (
      let cfg =
        {
          Tock_fleet.Fleet.boards;
          domains;
          group_size;
          cycles;
          batch;
          seed = Int64.of_int seed;
          park;
          park_min_quanta;
          verify_park;
          health;
          trace_capacity = (match trace_out with Some _ -> 65_536 | None -> 0);
          trace_boards;
          flight_dir;
          fault_board;
        }
      in
      match Tock_fleet.Fleet.validate cfg with
      | Error e -> `Error (true, e)
      | Ok () ->
          run_fleet cfg ~quiet ~metrics ~trace_out;
          `Ok ())

(* ---- postmortem ---- *)

let postmortem_cmd file =
  let s =
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  match Tock_fleet.Flight.decode s with
  | Error e ->
      Printf.eprintf "postmortem: %s: %s\n" file e;
      exit 1
  | Ok a ->
      print_string (Tock_fleet.Flight.render a);
      if Option.is_some a.Tock_fleet.Flight.fa_witness then (
        match Tock_fleet.Fleet.thaw_artifact a with
        | Ok board ->
            Printf.printf "\n-- thawed board (at %d cyc) --\n"
              (Tock_hw.Sim.now board.Tock_boards.Board.sim);
            print_processes board;
            print_metrics board
        | Error e -> Printf.printf "\nwitness did not thaw: %s\n" e)

(* ---- rot ---- *)

let rot_cmd tamper =
  let rot = Tock_boards.Rot_board.create () in
  let board = rot.Tock_boards.Rot_board.board in
  let token =
    Tock_boards.Rot_board.sign_app rot ~name:"token"
      ~binary:(Tock_userland.Apps.make_token_binary ()) ()
  in
  let token = if tamper then Tock_boards.Rot_board.tamper token else token in
  let requester = Tock_boards.Rot_board.sign_app rot ~name:"requester" () in
  let registry =
    [
      ("token", Tock_userland.Apps.hmac_token ~challenges:3);
      ( "requester",
        Tock_userland.Apps.hmac_token_requester ~service:"token" ~challenges:3 );
    ]
  in
  let summary = ref None in
  Tock_boards.Rot_board.load_signed rot ~apps:[ token; requester ] ~registry
    ~on_done:(fun s -> summary := Some s);
  ignore
    (Tock_boards.Board.run_until board ~max_cycles:200_000_000 (fun () ->
         !summary <> None));
  (match !summary with
  | Some s ->
      List.iter
        (function
          | Tock.Process_loader.Loaded p ->
              Printf.printf "verified: %s\n" (Tock.Process.name p)
          | Tock.Process_loader.Rejected { app_name; reason } ->
              Printf.printf "REJECTED: %s (%s)\n" app_name reason)
        s.Tock.Process_loader.outcomes
  | None -> print_endline "loader did not finish");
  Tock_boards.Board.run_to_completion board ~max_cycles:500_000_000 ();
  Printf.printf "--- console ---\n%s" (Tock_boards.Board.output board);
  print_stats board

let apps_cmd () =
  Printf.printf "available apps:\n";
  List.iter (fun (n, d, _) -> Printf.printf "  %-14s %s\n" n d) app_catalog

(* ---- cmdliner plumbing ---- *)

let chip_arg =
  Arg.(value & opt string "sam4l" & info [ "chip" ] ~docv:"CHIP" ~doc:"Chip profile: sam4l or rv32.")

let apps_arg =
  Arg.(value & opt_all string [ "hello" ] & info [ "app"; "a" ] ~docv:"APP" ~doc:"App to load (repeatable).")

let sched_arg =
  Arg.(value & opt string "rr" & info [ "scheduler" ] ~docv:"SCHED" ~doc:"rr, coop, priority, or mlfq.")

let seconds_arg =
  Arg.(value & opt float 2.0 & info [ "seconds" ] ~docv:"S" ~doc:"Simulated seconds to run.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let nodes_arg =
  Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc:"Sensor nodes (plus one gateway).")

let strace_arg =
  Arg.(value & flag & info [ "strace" ] ~doc:"Trace every system call.")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
       ~doc:"Print the metrics registry (counters, gauges, latency histograms).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the structured event trace as Chrome trace-event \
                 JSON (load in Perfetto or chrome://tracing).")

let tamper_arg =
  Arg.(value & flag & info [ "tamper" ] ~doc:"Corrupt the token app image after signing.")

let boards_arg =
  Arg.(value & opt int 64 & info [ "boards" ] ~docv:"N" ~doc:"Total boards in the fleet.")

let domains_arg =
  Arg.(value & opt string "1" & info [ "domains" ] ~docv:"D"
       ~doc:"Worker domains: a count, or 'auto' for the host's \
             recommended domain count (1 = sequential).")

let batch_arg =
  Arg.(value & opt int 250_000 & info [ "batch" ] ~docv:"B"
       ~doc:"Dispatch quantum in simulated cycles: each domain steps its \
             one live group this many cycles at a time until the group \
             retires or parks. Affects wall time only, never results.")

let group_size_arg =
  Arg.(value & opt int 1 & info [ "group-size" ] ~docv:"G"
       ~doc:"Boards per shared-clock radio group (1 = independent boards).")

let cycles_arg =
  Arg.(value & opt int 2_000_000 & info [ "cycles" ] ~docv:"C" ~doc:"Cycle budget per group clock.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the aggregate line.")

let park_arg =
  Arg.(value & flag & info [ "park" ]
       ~doc:"Park long-sleeping boards as compact byte witnesses and \
             resume them by direct thaw. Only boards whose live apps are \
             all asleep at their checkpoint park; the rest stay live. \
             Results are byte-identical either way.")

let park_min_quanta_arg =
  Arg.(value & opt int Tock_fleet.Fleet.default.Tock_fleet.Fleet.park_min_quanta
       & info [ "park-min-quanta" ] ~docv:"N"
       ~doc:"Park only boards sleeping through at least N dispatch \
             quanta (batches); shorter gaps are skipped in place.")

let verify_park_arg =
  Arg.(value & flag & info [ "verify-park" ]
       ~doc:"Cross-check every park resume: re-freeze the thawed board \
             and compare it with its witness byte for byte. For \
             debugging determinism.")

let health_arg =
  Arg.(value & flag & info [ "health" ]
       ~doc:"Fold per-board metrics into per-cohort cross-board rollups \
             and print the SLO verdict (healthy/degraded/unhealthy) with \
             outlier boards.")

let trace_boards_arg =
  Arg.(value & opt int 2 & info [ "trace-boards" ] ~docv:"N"
       ~doc:"With --trace-out: sample the first N boards with full \
             per-board trace rings, exported as extra Perfetto lanes.")

let flight_dir_arg =
  Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR"
       ~doc:"Arm the fault flight recorder: process faults, kernel \
             panics, and SLO breaches capture TCKFLT02 postmortem \
             artifacts into DIR (inspect with `tock_sim postmortem`).")

let fault_board_arg =
  Arg.(value & opt (some int) None & info [ "fault-board" ] ~docv:"B"
       ~doc:"Deliberately run board B with only the fault-injector app \
             (stop-on-fault), to exercise the flight recorder.")

let postmortem_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
       ~doc:"A TCKFLT02 artifact written by fleet --flight-dir.")

let run_t =
  Term.(const run_cmd $ chip_arg $ apps_arg $ sched_arg $ seconds_arg
        $ seed_arg $ strace_arg $ metrics_arg $ trace_out_arg)

let signpost_t = Term.(const signpost_cmd $ nodes_arg $ seconds_arg $ seed_arg)

let fleet_t =
  Term.(ret
          (const fleet_cmd $ boards_arg $ domains_arg $ group_size_arg
           $ cycles_arg $ batch_arg $ seed_arg $ park_arg $ park_min_quanta_arg
           $ verify_park_arg $ quiet_arg $ metrics_arg $ health_arg
           $ trace_out_arg $ trace_boards_arg $ flight_dir_arg $ fault_board_arg))

let rot_t = Term.(const rot_cmd $ tamper_arg)

let apps_t = Term.(const apps_cmd $ const ())

let postmortem_t = Term.(const postmortem_cmd $ postmortem_file_arg)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Boot a single board with apps") run_t;
    Cmd.v (Cmd.info "signpost" ~doc:"Multi-node urban sensing deployment") signpost_t;
    Cmd.v (Cmd.info "fleet" ~doc:"Domain-parallel multi-board fleet") fleet_t;
    Cmd.v (Cmd.info "rot" ~doc:"Root-of-trust signed boot scenario") rot_t;
    Cmd.v (Cmd.info "apps" ~doc:"List available applications") apps_t;
    Cmd.v
      (Cmd.info "postmortem"
         ~doc:"Render a TCKFLT02 flight artifact and thaw its witness")
      postmortem_t;
  ]

let () =
  let doc = "simulated Tock platform driver" in
  exit (Cmd.eval (Cmd.group (Cmd.info "tock_sim" ~doc) cmds))
