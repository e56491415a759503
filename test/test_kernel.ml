(* Kernel behaviour: scheduling, preemption, fault policies, memops,
   aliasing policies, permissions, blocking commands, yield variants. *)

open! Helpers
open Tock

let cfg ?scheduler ?fault_policy ?aliasing_policy ?blocking_commands () =
  let d = Kernel.default_config () in
  {
    d with
    Kernel.scheduler = Option.value scheduler ~default:d.Kernel.scheduler;
    fault_policy = Option.value fault_policy ~default:d.Kernel.fault_policy;
    aliasing_policy = Option.value aliasing_policy ~default:d.Kernel.aliasing_policy;
    blocking_commands = Option.value blocking_commands ~default:d.Kernel.blocking_commands;
  }

let test_hello_end_to_end () =
  let board = make_board () in
  ignore (add_app_exn board ~name:"hello" Tock_userland.Apps.hello);
  run_done board;
  check_contains ~msg:"console" (Tock_boards.Board.output board) "Hello from hello!";
  let s = Kernel.stats board.Tock_boards.Board.kernel in
  Alcotest.(check bool) "syscalls happened" true (s.Kernel.syscalls > 0);
  Alcotest.(check bool) "kernel slept" true (s.Kernel.sleeps > 0)

let test_multiprogramming_interleaves () =
  let board = make_board () in
  ignore (add_app_exn board ~name:"a" (Tock_userland.Apps.counter ~n:3 ~period_ticks:64));
  ignore (add_app_exn board ~name:"b" (Tock_userland.Apps.counter ~n:3 ~period_ticks:64));
  run_done board;
  let out = Tock_boards.Board.output board in
  List.iter
    (fun needle -> check_contains ~msg:"interleaved output" out needle)
    [ "a: count 1"; "b: count 1"; "a: count 3"; "b: count 3" ]

let test_preemption_of_spinner () =
  (* A CPU-bound spinner must not starve a sleeper under round-robin. *)
  let board = make_board ~config:(cfg ~scheduler:(Scheduler.round_robin ~timeslice:5_000 ()) ()) () in
  ignore (add_app_exn board ~name:"spin" Tock_userland.Apps.spinner);
  ignore (add_app_exn board ~name:"count" (Tock_userland.Apps.counter ~n:3 ~period_ticks:50));
  (* The spinner never exits; run until the counter finishes. *)
  let counter_done () =
    match Kernel.find_process_by_name board.Tock_boards.Board.kernel "count" with
    | Some p -> (match Process.state p with Process.Terminated _ -> true | _ -> false)
    | None -> false
  in
  let ok = Tock_boards.Board.run_until board ~max_cycles:100_000_000 counter_done in
  Alcotest.(check bool) "counter finished despite spinner" true ok;
  check_contains ~msg:"output" (Tock_boards.Board.output board) "count: count 3"

let test_cooperative_starves () =
  (* Under the cooperative scheduler the same spinner starves everyone:
     the flip side of the same experiment. *)
  let board = make_board ~config:(cfg ~scheduler:(Scheduler.cooperative ()) ()) () in
  ignore (add_app_exn board ~name:"spin" Tock_userland.Apps.spinner);
  ignore (add_app_exn board ~name:"count" (Tock_userland.Apps.counter ~n:1 ~period_ticks:50));
  let counter_done () =
    match Kernel.find_process_by_name board.Tock_boards.Board.kernel "count" with
    | Some p -> (match Process.state p with Process.Terminated _ -> true | _ -> false)
    | None -> false
  in
  let ok = Tock_boards.Board.run_until board ~max_cycles:5_000_000 counter_done in
  Alcotest.(check bool) "counter starved" false ok

let test_fault_policy_restart () =
  let board =
    make_board ~config:(cfg ~fault_policy:(Kernel.Restart_on_fault 2) ()) ()
  in
  ignore (add_app_exn board ~name:"faulty" (Tock_userland.Apps.fault_injector ~delay_ticks:10));
  run_done board ~max_cycles:200_000_000;
  let s = Kernel.stats board.Tock_boards.Board.kernel in
  Alcotest.(check int) "three faults (initial + 2 restarts)" 3 s.Kernel.faults;
  Alcotest.(check int) "two restarts" 2 s.Kernel.restarts;
  match Kernel.find_process_by_name board.Tock_boards.Board.kernel "faulty" with
  | Some p -> (
      match Process.state p with
      | Process.Faulted (Process.Mpu_violation _) -> ()
      | st ->
          Alcotest.failf "expected Faulted(Mpu_violation), got %s"
            (match st with
            | Process.Terminated _ -> "terminated"
            | Process.Faulted _ -> "other fault"
            | _ -> "alive"))
  | None -> Alcotest.fail "process missing"

let test_fault_policy_panic () =
  let board = make_board ~config:(cfg ~fault_policy:Kernel.Panic_on_fault ()) () in
  ignore (add_app_exn board ~name:"faulty" (Tock_userland.Apps.fault_injector ~delay_ticks:5));
  Alcotest.(check bool) "kernel panics" true
    (try run_done board ~max_cycles:100_000_000; false
     with Kernel.Panic _ -> true);
  (* Freeze only reads state, so it still succeeds after the panic:
     the witness frame decodes (thaw may decline the freeze point). *)
  let w = Kernel.freeze board.Tock_boards.Board.kernel in
  let sections =
    Tock.Witness.sections ~components:[ "alarm"; "flash"; "uart_log" ]
  in
  match Tock_obs.Frame.decode ~magic:Tock.Witness.magic ~sections w with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "witness after a panic: %s" e

let test_fault_policy_stop () =
  let board = make_board ~config:(cfg ~fault_policy:Kernel.Stop_on_fault ()) () in
  ignore (add_app_exn board ~name:"faulty" (Tock_userland.Apps.fault_injector ~delay_ticks:5));
  run_done board ~max_cycles:100_000_000;
  let s = Kernel.stats board.Tock_boards.Board.kernel in
  Alcotest.(check int) "one fault, no restart" 1 s.Kernel.faults;
  Alcotest.(check int) "no restarts" 0 s.Kernel.restarts

let test_memops () =
  let board = make_board () in
  let results = ref None in
  let app a =
    let rs = Tock_userland.Libtock.ram_start a in
    let re = Tock_userland.Libtock.ram_end a in
    let sbrk_old =
      match Tock_userland.Libtock.memop a ~op:Syscall.memop_sbrk ~arg:256 with
      | Syscall.Success_u32 v -> v
      | _ -> -1
    in
    results := Some (rs, re, sbrk_old);
    Tock_userland.Libtock.exit a 0
  in
  let proc = add_app_exn board ~name:"memops" app in
  run_done board;
  match !results with
  | Some (rs, re, old_break) ->
      Alcotest.(check int) "ram_start" (Process.ram_base proc) rs;
      Alcotest.(check int) "ram_end" (Process.ram_end proc) re;
      Alcotest.(check bool) "sbrk returned old break" true (old_break > rs && old_break < re)
  | None -> Alcotest.fail "app did not run"

let test_exit_restart_syscall () =
  let board = make_board () in
  let runs = ref 0 in
  let app a =
    incr runs;
    if !runs < 3 then Tock_userland.Libtock.restart a
    else Tock_userland.Libtock.exit a 7
  in
  let proc = add_app_exn board ~name:"phoenix" app in
  run_done board ~max_cycles:100_000_000;
  Alcotest.(check int) "ran three times" 3 !runs;
  (match Process.state proc with
  | Process.Terminated { code = 7 } -> ()
  | _ -> Alcotest.fail "expected terminated(7)");
  Alcotest.(check int) "restart count" 2 (Process.restart_count proc)

let test_aliasing_policies () =
  (* Two overlapping read-write allows: counted under cell semantics,
     rejected under the runtime-check policy (paper §5.1.1). *)
  let run_with policy =
    let board = make_board ~config:(cfg ~aliasing_policy:policy ()) () in
    let second = ref None in
    let app a =
      let addr = Tock_userland.Emu.alloc a 64 in
      ignore (Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:1 ~addr ~len:64);
      second :=
        Some
          (Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:2
             ~addr:(addr + 16) ~len:16);
      Tock_userland.Libtock.exit a 0
    in
    ignore (add_app_exn board ~name:"alias" app);
    run_done board;
    (board, !second)
  in
  let board, second = run_with Kernel.Cell_semantics in
  (match second with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "cell semantics must accept the overlap");
  Alcotest.(check int) "aliased allows counted" 1
    (Kernel.stats board.Tock_boards.Board.kernel).Kernel.aliased_allows;
  let board, second = run_with Kernel.Reject_overlap in
  (match second with
  | Some (Error Error.INVAL) -> ()
  | _ -> Alcotest.fail "reject policy must refuse the overlap");
  Alcotest.(check int) "rejection counted" 1
    (Kernel.stats board.Tock_boards.Board.kernel).Kernel.overlap_rejected

let test_allow_swap_semantics () =
  let board = make_board () in
  let observed = ref [] in
  let app a =
    let b1 = Tock_userland.Emu.alloc a 32 in
    let b2 = Tock_userland.Emu.alloc a 32 in
    (match Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:1 ~addr:b1 ~len:32 with
    | Ok (a0, l0) -> observed := (a0, l0) :: !observed
    | Error _ -> ());
    (match Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:1 ~addr:b2 ~len:32 with
    | Ok (a1, l1) -> observed := (a1, l1) :: !observed
    | Error _ -> ());
    (* revoke: swap in the zero buffer, first buffer comes back *)
    (match Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:1 ~addr:0 ~len:0 with
    | Ok (a2, l2) -> observed := (a2, l2) :: !observed
    | Error _ -> ());
    observed := List.rev !observed;
    (match !observed with
    | [ (0, 0); (x1, 32); (x2, 32) ] when x1 = b1 && x2 = b2 -> ()
    | _ -> raise (Tock_userland.Emu.App_panic_exn "swap semantics broken"));
    Tock_userland.Libtock.exit a 0
  in
  let p = add_app_exn board ~name:"swapper" app in
  run_done board;
  match Process.state p with
  | Process.Terminated { code = 0 } -> ()
  | _ -> Alcotest.fail "swap semantics assertion failed in-app"

(* An address near [max_int] must not wrap the range checks: the
   allow is refused with INVAL, and the kernel loop does not raise. *)
let test_allow_near_max_int () =
  let board = make_board () in
  let app a =
    let refused r =
      match r with Error Error.INVAL -> true | Ok _ | Error _ -> false
    in
    let ro =
      Tock_userland.Libtock.allow_ro a ~driver:Driver_num.console ~num:1
        ~addr:max_int ~len:1
    in
    let rw =
      Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:1
        ~addr:(max_int - 3) ~len:8
    in
    Tock_userland.Libtock.exit a (if refused ro && refused rw then 0 else 1)
  in
  let p = add_app_exn board ~name:"wrapper" app in
  run_done board;
  match Process.state p with
  | Process.Terminated { code = 0 } -> ()
  | _ -> Alcotest.fail "an allow near max_int was not refused with INVAL"

(* The same for an emulated load: the MPU check must refuse it, so the
   process faults with an MPU violation, not an out-of-bounds panic. *)
let test_read_near_max_int () =
  let board = make_board () in
  let app a =
    ignore (Tock_userland.Emu.read_u32 a ~addr:(max_int - 1));
    Tock_userland.Libtock.exit a 0
  in
  let p = add_app_exn board ~name:"wrapper" app in
  run_done board;
  match Process.state p with
  | Process.Faulted (Process.Mpu_violation _) -> ()
  | s ->
      Alcotest.failf "a read near max_int ended as %s"
        (match s with
        | Process.Faulted r -> Process.describe_fault r
        | _ -> "no fault")

let test_zero_len_allow_niche () =
  (* Zero-length allow with a non-zero address: accepted, but counted as a
     dynamic null-slice fix-up (paper §5.1.2). *)
  let board = make_board () in
  let app a =
    ignore
      (Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:1
         ~addr:0xDEAD ~len:0);
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"niche" app);
  run_done board;
  Alcotest.(check int) "fixup counted" 1
    (Kernel.stats board.Tock_boards.Board.kernel).Kernel.zero_len_allows

let test_tbf_permission_filter () =
  (* A process whose TBF permissions only list the alarm driver gets
     NODEVICE for the console. *)
  let board = make_board () in
  let seen = ref None in
  let app a =
    seen :=
      Some
        ( Tock_userland.Libtock.driver_exists a ~driver:Driver_num.alarm,
          Tock_userland.Libtock.driver_exists a ~driver:Driver_num.console );
    Tock_userland.Libtock.exit a 0
  in
  (match
     Kernel.create_process board.Tock_boards.Board.kernel
       ~cap:board.Tock_boards.Board.pm_cap ~name:"restricted"
       ~flash_base:Tock_boards.Board.flash_app_base
       ~flash:(Bytes.of_string "restricted") ~min_ram:4096
       ~permissions:[ (Driver_num.alarm, 0b1111111) ]
       ~factory:(Tock_userland.Apps.to_factory app) ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "create: %s" (Error.to_string e));
  run_done board;
  (match !seen with
  | Some (true, false) -> ()
  | Some (a, c) -> Alcotest.failf "alarm=%b console=%b" a c
  | None -> Alcotest.fail "app did not run");
  Alcotest.(check bool) "filtered counted" true
    ((Kernel.stats board.Tock_boards.Board.kernel).Kernel.filtered_commands > 0)

let test_blocking_command_gate () =
  (* Disabled: NOSUPPORT. Enabled: one call does an entire alarm sleep. *)
  let attempt ~enabled =
    let board = make_board ~config:(cfg ~blocking_commands:enabled ()) () in
    let result = ref None in
    let app a =
      result :=
        Some
          (Tock_userland.Libtock_sync.call_blocking a ~driver:Driver_num.alarm
             ~sub:0 ~cmd:5 ~arg1:20 ~arg2:0);
      Tock_userland.Libtock.exit a 0
    in
    ignore (add_app_exn board ~name:"blocker" app);
    run_done board ~max_cycles:100_000_000;
    !result
  in
  (match attempt ~enabled:false with
  | Some (Error Error.NOSUPPORT) -> ()
  | _ -> Alcotest.fail "must be NOSUPPORT when disabled");
  match attempt ~enabled:true with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "blocking command failed: %s" (Error.to_string e)
  | None -> Alcotest.fail "app did not run"

let test_process_management () =
  let board = make_board () in
  let k = board.Tock_boards.Board.kernel in
  let cap = board.Tock_boards.Board.pm_cap in
  let p = add_app_exn board ~name:"victim" (Tock_userland.Apps.counter ~n:100 ~period_ticks:50) in
  Tock_boards.Board.run_cycles board 2_000_000;
  (match Kernel.stop_process k ~cap (Process.id p) with
  | Ok () -> () | Error e -> Alcotest.failf "stop: %s" (Error.to_string e));
  let out_at_stop = Tock_boards.Board.output board in
  Tock_boards.Board.run_cycles board 2_000_000;
  Alcotest.(check string) "no progress while stopped" out_at_stop
    (Tock_boards.Board.output board);
  (match Kernel.start_process k ~cap (Process.id p) with
  | Ok () -> () | Error e -> Alcotest.failf "start: %s" (Error.to_string e));
  Tock_boards.Board.run_cycles board 3_000_000;
  Alcotest.(check bool) "progress after resume" true
    (String.length (Tock_boards.Board.output board) > String.length out_at_stop);
  (match Kernel.terminate_process k ~cap (Process.id p) with
  | Ok () -> () | Error e -> Alcotest.failf "terminate: %s" (Error.to_string e));
  match Process.state p with
  | Process.Terminated _ -> ()
  | _ -> Alcotest.fail "not terminated"

let test_grant_exhaustion_is_contained () =
  (* The memory hog exhausts its own block; a victim app keeps working —
     the paper's §2.4 availability argument. *)
  let board = make_board () in
  ignore (add_app_exn board ~name:"hog" Tock_userland.Apps.memory_hog);
  ignore (add_app_exn board ~name:"victim" (Tock_userland.Apps.counter ~n:4 ~period_ticks:80));
  run_done board ~max_cycles:200_000_000;
  let out = Tock_boards.Board.output board in
  check_contains ~msg:"hog survived" out "kernel still alive";
  check_contains ~msg:"victim unaffected" out "victim: count 4"

let test_process_console_drives_kernel () =
  let board = make_board () in
  ignore (add_app_exn board ~name:"app1" (Tock_userland.Apps.counter ~n:2 ~period_ticks:40));
  run_done board;
  let pc = board.Tock_boards.Board.process_console in
  Tock_capsules.Process_console.inject_line pc "list";
  Tock_capsules.Process_console.inject_line pc "stats";
  Tock_capsules.Process_console.inject_line pc "badcmd";
  Tock_capsules.Process_console.inject_line pc "stop nosuch";
  let out = Tock_capsules.Process_console.output pc in
  check_contains ~msg:"list shows app" out "app1";
  check_contains ~msg:"stats" out "syscalls=";
  check_contains ~msg:"unknown" out "unknown command";
  check_contains ~msg:"missing process" out "no such process"

let suite =
  [
    Alcotest.test_case "hello end to end" `Quick test_hello_end_to_end;
    Alcotest.test_case "multiprogramming" `Quick test_multiprogramming_interleaves;
    Alcotest.test_case "preemption (round robin)" `Quick test_preemption_of_spinner;
    Alcotest.test_case "cooperative starvation" `Quick test_cooperative_starves;
    Alcotest.test_case "fault: restart policy" `Quick test_fault_policy_restart;
    Alcotest.test_case "fault: panic policy" `Quick test_fault_policy_panic;
    Alcotest.test_case "fault: stop policy" `Quick test_fault_policy_stop;
    Alcotest.test_case "memops" `Quick test_memops;
    Alcotest.test_case "exit-restart syscall" `Quick test_exit_restart_syscall;
    Alcotest.test_case "aliasing policies" `Quick test_aliasing_policies;
    Alcotest.test_case "allow swap semantics" `Quick test_allow_swap_semantics;
    Alcotest.test_case "allow near max_int refused" `Quick test_allow_near_max_int;
    Alcotest.test_case "read near max_int is an MPU fault" `Quick test_read_near_max_int;
    Alcotest.test_case "zero-length allow niche" `Quick test_zero_len_allow_niche;
    Alcotest.test_case "tbf permission filter" `Quick test_tbf_permission_filter;
    Alcotest.test_case "blocking command gate" `Quick test_blocking_command_gate;
    Alcotest.test_case "process management" `Quick test_process_management;
    Alcotest.test_case "grant exhaustion contained" `Quick test_grant_exhaustion_is_contained;
    Alcotest.test_case "process console" `Quick test_process_console_drives_kernel;
  ]
