(* Edge cases accumulated across subsystems: resource exhaustion, driver
   error paths, cancellations, and kernel API corners. *)

open! Helpers
open Tock

let test_process_table_limit () =
  let config = { (Kernel.default_config ()) with Kernel.max_processes = 2 } in
  let board = make_board ~config () in
  ignore (add_app_exn board ~name:"a" Tock_userland.Apps.hello);
  ignore (add_app_exn board ~name:"b" Tock_userland.Apps.hello);
  match Tock_boards.Board.add_app board ~name:"c" Tock_userland.Apps.hello with
  | Error Error.NOMEM -> ()
  | _ -> Alcotest.fail "third process must be NOMEM"

let test_ram_pool_exhaustion () =
  (* 128 kB pool, 32 kB blocks (po2 MPU): the fifth app does not fit. *)
  let board = make_board () in
  let rec fill i acc =
    if i > 8 then acc
    else
      match
        Tock_boards.Board.add_app board ~min_ram:20_000
          ~name:(Printf.sprintf "big%d" i) Tock_userland.Apps.hello
      with
      | Ok _ -> fill (i + 1) (acc + 1)
      | Error Error.NOMEM -> acc
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e)
  in
  let fitted = fill 1 0 in
  Alcotest.(check int) "exactly four 32k blocks in 128k" 4 fitted

let test_run_until_timeout () =
  let board = make_board () in
  ignore (add_app_exn board ~name:"spin" Tock_userland.Apps.spinner);
  let ok = Tock_boards.Board.run_until board ~max_cycles:100_000 (fun () -> false) in
  Alcotest.(check bool) "times out false" false ok

let test_find_by_name () =
  let board = make_board () in
  let p = add_app_exn board ~name:"needle" Tock_userland.Apps.hello in
  (match Kernel.find_process_by_name board.Tock_boards.Board.kernel "needle" with
  | Some q -> Alcotest.(check int) "found" (Process.id p) (Process.id q)
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "missing is None" true
    (Kernel.find_process_by_name board.Tock_boards.Board.kernel "haystack" = None)

let test_console_error_paths () =
  let board = make_board () in
  let results = ref [] in
  let app a =
    (* write with nothing allowed *)
    results :=
      Tock_userland.Libtock.command a ~driver:Driver_num.console ~cmd:1 ~arg1:10 ~arg2:0
      :: !results;
    (* unknown command *)
    results :=
      Tock_userland.Libtock.command a ~driver:Driver_num.console ~cmd:99 ~arg1:0 ~arg2:0
      :: !results;
    (* read abort with no read pending is still Success *)
    results :=
      Tock_userland.Libtock.command a ~driver:Driver_num.console ~cmd:3 ~arg1:0 ~arg2:0
      :: !results;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"errs" app);
  run_done board;
  match List.rev !results with
  | [ Syscall.Failure Error.RESERVE; Syscall.Failure Error.NOSUPPORT; Syscall.Success ] -> ()
  | l -> Alcotest.failf "unexpected results (%d)" (List.length l)

let test_led_driver_syscalls () =
  let board = make_board () in
  let count = ref 0 and bad = ref None in
  let app a =
    (match Tock_userland.Libtock.command a ~driver:Driver_num.led ~cmd:0 ~arg1:0 ~arg2:0 with
    | Syscall.Success_u32 n -> count := n
    | _ -> ());
    ignore (Tock_userland.Libtock.command a ~driver:Driver_num.led ~cmd:1 ~arg1:0 ~arg2:0);
    ignore (Tock_userland.Libtock.command a ~driver:Driver_num.led ~cmd:3 ~arg1:1 ~arg2:0);
    bad := Some (Tock_userland.Libtock.command a ~driver:Driver_num.led ~cmd:1 ~arg1:99 ~arg2:0);
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"leds" app);
  run_done board;
  Alcotest.(check int) "four leds" 4 !count;
  match !bad with
  | Some (Syscall.Failure Error.INVAL) -> ()
  | _ -> Alcotest.fail "bad index must be INVAL"

let test_gpio_driver_upcall () =
  let board = make_board () in
  let chip = board.Tock_boards.Board.chip in
  let got = ref None in
  let app a =
    (* driver pin 0 = hw pin 8 *)
    ignore
      (Tock_userland.Libtock.subscribe a ~driver:Driver_num.gpio ~sub:0
         (fun pin level _ -> got := Some (pin, level)));
    ignore (Tock_userland.Libtock.command a ~driver:Driver_num.gpio ~cmd:5 ~arg1:0 ~arg2:0);
    ignore (Tock_userland.Libtock.command a ~driver:Driver_num.gpio ~cmd:7 ~arg1:0 ~arg2:1);
    Tock_userland.Libtock.yield_wait a;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"gpio" app);
  Tock_boards.Board.run_cycles board 200_000;
  Tock_hw.Gpio.drive chip.Tock_hw.Chip.gpio ~pin:8 true;
  run_done board ~max_cycles:100_000_000;
  match !got with
  | Some (0, 1) -> ()
  | _ -> Alcotest.fail "gpio rising edge upcall missing"

let test_alarm_cancel () =
  let board = make_board () in
  let fired = ref false in
  let app a =
    ignore
      (Tock_userland.Libtock.subscribe a ~driver:Driver_num.alarm ~sub:0
         (fun _ _ _ -> fired := true));
    ignore (Tock_userland.Libtock.command a ~driver:Driver_num.alarm ~cmd:5 ~arg1:100 ~arg2:0);
    ignore (Tock_userland.Libtock.command a ~driver:Driver_num.alarm ~cmd:6 ~arg1:0 ~arg2:0);
    (* sleep past the cancelled deadline via a second alarm *)
    Tock_userland.Libtock_sync.sleep_ticks a 300;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"cancel" app);
  run_done board;
  Alcotest.(check bool) "cancelled alarm never fires" false !fired

let test_alarm_frequency_matches_chip () =
  let check_chip chip expect =
    let board = make_board ~chip () in
    let hz = ref 0 in
    let app a = hz := Tock_userland.Libtock_sync.alarm_frequency a; Tock_userland.Libtock.exit a 0 in
    ignore (add_app_exn board ~name:"f" app);
    run_done board;
    Alcotest.(check int) "frequency" expect !hz
  in
  check_chip `Sam4l (16_000_000 / 1024);
  check_chip `Rv32 (16_000_000 / 512)

let test_digest_busy_between_processes () =
  (* One engine: the second process's request while the first is mid-op
     sees BUSY and retries — serialized, both finish with correct MACs. *)
  let board = make_board () in
  let outs = Array.make 2 Bytes.empty in
  let data = Bytes.make 600 'd' in
  let mk i a =
    let rec go tries =
      if tries = 0 then raise (Tock_userland.Emu.App_panic_exn "never got engine");
      let addrd = Tock_userland.Emu.get_buffer a ~tag:"d" ~size:600 in
      Tock_userland.Emu.write_bytes a ~addr:addrd data;
      let addro = Tock_userland.Emu.get_buffer a ~tag:"o" ~size:32 in
      ignore (Tock_userland.Libtock.allow_ro a ~driver:Driver_num.sha ~num:1 ~addr:addrd ~len:600);
      ignore (Tock_userland.Libtock.allow_rw a ~driver:Driver_num.sha ~num:0 ~addr:addro ~len:32);
      match
        Tock_userland.Libtock_sync.call_classic a ~driver:Driver_num.sha
          ~sub:0 ~cmd:1 ~arg1:0 ~arg2:0
      with
      | Ok (32, _, _) -> outs.(i) <- Tock_userland.Emu.read_bytes a ~addr:addro ~len:32
      | Ok _ -> raise (Tock_userland.Emu.App_panic_exn "short digest")
      | Error Error.BUSY ->
          Tock_userland.Libtock_sync.sleep_ticks a 16;
          go (tries - 1)
      | Error e -> raise (Tock_userland.Emu.App_panic_exn (Error.to_string e))
    in
    go 100;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"sha0" (mk 0));
  ignore (add_app_exn board ~name:"sha1" (mk 1));
  run_done board ~max_cycles:400_000_000;
  let expect = hex (Tock_crypto.Sha256.digest_bytes data) in
  Alcotest.(check string) "first" expect (hex outs.(0));
  Alcotest.(check string) "second" expect (hex outs.(1))

let test_mem_view_straddle () =
  let board = make_board () in
  let p = add_app_exn board ~name:"x" Tock_userland.Apps.hello in
  let base = Process.ram_base p in
  Alcotest.(check bool) "inside ok" true
    (Process.mem_view p ~addr:base ~len:16 <> None);
  Alcotest.(check bool) "straddling out the top" true
    (Process.mem_view p ~addr:(Process.ram_end p - 8) ~len:16 = None);
  Alcotest.(check bool) "negative length" true
    (Process.mem_view p ~addr:base ~len:(-1) = None);
  Alcotest.(check bool) "address near max_int does not wrap" true
    (Process.mem_view p ~addr:(max_int - 3) ~len:8 = None)

let test_allow_size_tracks () =
  let board = make_board () in
  let k = board.Tock_boards.Board.kernel in
  let app a =
    let addr = Tock_userland.Emu.alloc a 64 in
    ignore (Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:1 ~addr ~len:48);
    Tock_userland.Libtock_sync.sleep_ticks a 50;
    Tock_userland.Libtock.unallow_rw a ~driver:Driver_num.console ~num:1;
    Tock_userland.Libtock_sync.sleep_ticks a 50;
    Tock_userland.Libtock.exit a 0
  in
  let p = add_app_exn board ~name:"sizes" app in
  Tock_boards.Board.run_cycles board 30_000;
  Alcotest.(check int) "while allowed" 48
    (Kernel.allow_size k (Process.id p) ~kind:`Rw ~driver:Driver_num.console ~allow_num:1);
  run_done board;
  Alcotest.(check int) "after revocation" 0
    (Kernel.allow_size k (Process.id p) ~kind:`Rw ~driver:Driver_num.console ~allow_num:1)

let test_pressure_and_light () =
  let board = make_board () in
  let p = ref 0 and l = ref 0 in
  let app a =
    p := Tock_userland.Libtock_sync.pressure_read a;
    l := Tock_userland.Libtock_sync.light_read a;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"wx" app);
  run_done board;
  Alcotest.(check bool) "pressure ~1013 hPa" true (!p > 950 && !p < 1080);
  Alcotest.(check bool) "daylight" true (!l > 700 && !l < 900)

let test_error_strings_total () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "nonempty" true (String.length (Error.to_string e) > 0))
    [ Error.FAIL; Error.BUSY; Error.ALREADY; Error.OFF; Error.RESERVE;
      Error.INVAL; Error.SIZE; Error.CANCEL; Error.NOMEM; Error.NOSUPPORT;
      Error.NODEVICE; Error.UNINSTALLED; Error.NOACK ]

let test_sticky_flag_preserved () =
  let board = make_board () in
  let tbf =
    Tock_tbf.Tbf.make
      ~flags:(Tock_tbf.Tbf.flag_enabled lor Tock_tbf.Tbf.flag_sticky)
      ~name:"stick" ~binary:(Bytes.of_string "stick") ()
  in
  let summary =
    Tock_boards.Board.load_tbf_sync board
      ~flash:(Tock_tbf.Tbf.serialize tbf)
      ~registry:[ ("stick", Tock_userland.Apps.hello) ]
  in
  match summary.Process_loader.outcomes with
  | [ Process_loader.Loaded p ] ->
      Alcotest.(check bool) "sticky bit visible" true
        (Process.tbf_flags p land Tock_tbf.Tbf.flag_sticky <> 0)
  | _ -> Alcotest.fail "load failed"

let suite =
  [
    Alcotest.test_case "process table limit" `Quick test_process_table_limit;
    Alcotest.test_case "ram pool exhaustion" `Quick test_ram_pool_exhaustion;
    Alcotest.test_case "run_until timeout" `Quick test_run_until_timeout;
    Alcotest.test_case "find by name" `Quick test_find_by_name;
    Alcotest.test_case "console error paths" `Quick test_console_error_paths;
    Alcotest.test_case "led driver" `Quick test_led_driver_syscalls;
    Alcotest.test_case "gpio upcall" `Quick test_gpio_driver_upcall;
    Alcotest.test_case "alarm cancel" `Quick test_alarm_cancel;
    Alcotest.test_case "alarm frequency per chip" `Quick test_alarm_frequency_matches_chip;
    Alcotest.test_case "digest engine contention" `Quick test_digest_busy_between_processes;
    Alcotest.test_case "mem_view straddle" `Quick test_mem_view_straddle;
    Alcotest.test_case "allow_size tracks" `Quick test_allow_size_tracks;
    Alcotest.test_case "pressure + light" `Quick test_pressure_and_light;
    Alcotest.test_case "error strings" `Quick test_error_strings_total;
    Alcotest.test_case "sticky flag" `Quick test_sticky_flag_preserved;
  ]
