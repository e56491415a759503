(* Newer features: IPC byte messaging, the process console over the real
   UART receive path, the kernel debug writer, and subscribe-swap edge
   cases. *)

open! Helpers
open Tock

let test_ipc_byte_messages () =
  let board = make_board () in
  let got = ref None in
  let receiver a =
    Tock_userland.Libtock_sync.ipc_register a;
    Tock_userland.Libtock_sync.ipc_open_mailbox a ~size:64;
    let sender, payload = Tock_userland.Libtock_sync.ipc_next_message a in
    got := Some (sender, Bytes.to_string payload);
    Tock_userland.Libtock.exit a 0
  in
  let sender a =
    let rec discover n =
      match Tock_userland.Libtock_sync.ipc_discover a "receiver" with
      | Ok pid -> pid
      | Error _ when n > 0 ->
          Tock_userland.Libtock_sync.sleep_ticks a 16;
          discover (n - 1)
      | Error _ -> raise (Tock_userland.Emu.App_panic_exn "no receiver")
    in
    let pid = discover 30 in
    (* give the receiver time to open its mailbox *)
    Tock_userland.Libtock_sync.sleep_ticks a 64;
    (match
       Tock_userland.Libtock_sync.ipc_send_bytes a ~pid
         (Bytes.of_string "kernel-mediated message")
     with
    | Ok n when n > 0 -> ()
    | _ -> raise (Tock_userland.Emu.App_panic_exn "send failed"));
    Tock_userland.Libtock.exit a 0
  in
  let rp = add_app_exn board ~name:"receiver" receiver in
  let sp = add_app_exn board ~name:"sender" sender in
  run_done board ~max_cycles:400_000_000;
  (match !got with
  | Some (src, msg) ->
      Alcotest.(check int) "sender pid" (Process.id sp) src;
      Alcotest.(check string) "payload" "kernel-mediated message" msg
  | None -> Alcotest.fail "no message delivered");
  Alcotest.(check bool) "bytes accounted" true
    (Tock_capsules.Ipc.bytes_transferred board.Tock_boards.Board.ipc > 0);
  ignore rp

let test_ipc_send_without_mailbox () =
  let board = make_board () in
  let result = ref None in
  let lonely a =
    let payload = Bytes.of_string "into the void" in
    result :=
      Some
        (Tock_userland.Libtock_sync.ipc_send_bytes a
           ~pid:(Process.id (Tock_userland.Emu.proc a))
           payload);
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"lonely" lonely);
  run_done board;
  match !result with
  | Some (Ok 0) -> () (* copied nothing: receiver shared no window *)
  | Some (Ok n) -> Alcotest.failf "copied %d bytes into nothing" n
  | Some (Error _) -> ()
  | None -> Alcotest.fail "app did not run"

let test_process_console_over_uart () =
  let board = make_board () in
  ignore (add_app_exn board ~name:"app1" (Tock_userland.Apps.counter ~n:2 ~period_ticks:32));
  Tock_capsules.Process_console.start_listening board.Tock_boards.Board.process_console;
  run_done board;
  (* An operator types "list\n" at the serial terminal. *)
  Tock_hw.Uart.rx_inject board.Tock_boards.Board.chip.Tock_hw.Chip.uart0
    (Bytes.of_string "list\n");
  Tock_boards.Board.run_cycles board 10_000_000;
  let out = Tock_capsules.Process_console.output board.Tock_boards.Board.process_console in
  check_contains ~msg:"list over the wire" out "app1";
  (* Garbage then a valid command still parses line-wise. *)
  Tock_hw.Uart.rx_inject board.Tock_boards.Board.chip.Tock_hw.Chip.uart0
    (Bytes.of_string "   \nstats\n");
  Tock_boards.Board.run_cycles board 10_000_000;
  check_contains ~msg:"stats over the wire"
    (Tock_capsules.Process_console.output board.Tock_boards.Board.process_console)
    "syscalls="

let test_debug_writer () =
  let board = make_board () in
  let dbg = board.Tock_boards.Board.debug in
  Tock_capsules.Debug_writer.printf dbg "boot: %d drivers" 16;
  Tock_capsules.Debug_writer.write dbg "second message";
  Tock_boards.Board.run_cycles board 5_000_000;
  let out = Tock_boards.Board.output board in
  check_contains ~msg:"first" out "boot: 16 drivers";
  check_contains ~msg:"second" out "second message";
  Alcotest.(check int) "nothing dropped" 0 (Tock_capsules.Debug_writer.dropped dbg);
  (* Flooding drops whole messages but never blocks the caller. *)
  for i = 1 to 100 do
    Tock_capsules.Debug_writer.printf dbg "flood %d" i
  done;
  Alcotest.(check bool) "drops counted under flood" true
    (Tock_capsules.Debug_writer.dropped dbg > 0);
  Tock_boards.Board.run_cycles board 50_000_000;
  Alcotest.(check int) "ring drained" 0 (Tock_capsules.Debug_writer.pending dbg)

let test_debug_interleaves_with_process_output () =
  (* Kernel debug and process printing share uart0 through the mux:
     both appear, both intact. *)
  let board = make_board () in
  ignore (add_app_exn board ~name:"chatty" (Tock_userland.Apps.counter ~n:3 ~period_ticks:64));
  Tock_capsules.Debug_writer.write board.Tock_boards.Board.debug "kernel: note";
  run_done board;
  let out = Tock_boards.Board.output board in
  check_contains ~msg:"kernel line" out "kernel: note";
  check_contains ~msg:"process line" out "chatty: count 3"

let test_subscribe_swap_returns_old () =
  let board = make_board () in
  let observed = ref [] in
  let app a =
    let fn1 = Tock_userland.Emu.register_upcall_fn a (fun _ _ _ -> ()) in
    let fn2 = Tock_userland.Emu.register_upcall_fn a (fun _ _ _ -> ()) in
    let subscribe fn =
      match
        Tock_userland.Emu.syscall a
          (Syscall.encode_call
             (Syscall.Subscribe
                { driver = Driver_num.alarm; subscribe_num = 0;
                  upcall_fn = fn; appdata = 7 }))
      with
      | `Regs regs -> (
          match Syscall.decode_ret regs with
          | Ok (Syscall.Success_u32_u32 (old_fn, old_data)) ->
              observed := (old_fn, old_data) :: !observed
          | _ -> ())
      | `Upcall _ -> ()
    in
    subscribe fn1;
    subscribe fn2;
    subscribe 0;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"swapper" app);
  run_done board;
  match List.rev !observed with
  | [ (0, 0); (f1, 7); (f2, 7) ] ->
      Alcotest.(check bool) "first swap returns null" true (f1 > 0 && f2 > f1)
  | l -> Alcotest.failf "unexpected swap results (%d)" (List.length l)

(* Per-class counts, including a class number the kernel does not
   support, kept exactly across a freeze -> thaw round trip. The app is
   resumable: its calls run once, before its first checkpoint sleep. *)
let test_syscall_class_accounting () =
  let unknown = ref None in
  let acct a =
    let k0 = Tock_userland.Emu.resume_point a in
    if k0 > 0 then Tock_userland.Libtock_sync.resume_sleep a
    else begin
      ignore (Tock_userland.Libtock.command a ~driver:Driver_num.led ~cmd:0 ~arg1:0 ~arg2:0);
      ignore (Tock_userland.Libtock.command a ~driver:Driver_num.led ~cmd:0 ~arg1:0 ~arg2:0);
      ignore (Tock_userland.Libtock.memop a ~op:Syscall.memop_ram_start ~arg:0);
      match Tock_userland.Emu.syscall a [| 0x55; 0; 0; 0; 0 |] with
      | `Regs r -> unknown := Some (Syscall.decode_ret r)
      | `Upcall _ -> ()
    end;
    for i = k0 + 1 to 2 do
      Tock_userland.Libtock_sync.checkpoint_sleep a ~cursor:i ~ticks:1500
    done;
    Tock_userland.Libtock.exit a 0
  in
  let build () =
    let sim = Tock_hw.Sim.create ~seed:0xACC7L ~trace_capacity:0 () in
    let board = Tock_boards.Board.build (Tock_hw.Chip.sam4l_like sim) in
    (board, add_app_exn board ~name:"acct" acct)
  in
  let classes = [ 0; 1; 2; 3; 4; 5; 6; 0x55; 0x56; 0x80 ] in
  let counts p =
    List.map (fun c -> (c, Process.syscall_count_by_class p ~class_num:c)) classes
  in
  (* Two LED commands plus each sleep's alarm command. *)
  let check_counts what p ~sleeps ~exits =
    let count c = Process.syscall_count_by_class p ~class_num:c in
    Alcotest.(check int) (what ^ ": commands") (2 + sleeps) (count 2);
    Alcotest.(check int) (what ^ ": one memop") 1 (count 5);
    Alcotest.(check int) (what ^ ": one unknown class") 1 (count 0x55);
    Alcotest.(check int) (what ^ ": no stray class") 0 (count 0x56);
    Alcotest.(check int) (what ^ ": exits") exits (count 6)
  in
  let board, p = build () in
  let k = board.Tock_boards.Board.kernel and cap = board.Tock_boards.Board.main_cap in
  Alcotest.(check bool) "reached the first checkpoint sleep" true
    (Kernel.run_until k ~cap (fun () -> Kernel.resumable k));
  (match !unknown with
  | Some (Ok (Syscall.Failure Error.NOSUPPORT)) -> ()
  | _ -> Alcotest.fail "unknown class must return NOSUPPORT");
  check_counts "frozen" p ~sleeps:1 ~exits:0;
  let w = Kernel.freeze k in
  let thawed, tp = build () in
  let tk = thawed.Tock_boards.Board.kernel in
  (match Kernel.thaw tk ~cap:thawed.Tock_boards.Board.main_cap w with
  | Ok () -> ()
  | Error e -> Alcotest.failf "thaw: %s" e);
  Alcotest.(check string) "re-freeze reproduces the witness" w (Kernel.freeze tk);
  Alcotest.(check (list (pair int int))) "thawed counts" (counts p) (counts tp);
  run_done board;
  run_done thawed;
  check_counts "finished" p ~sleeps:2 ~exits:1;
  Alcotest.(check (list (pair int int))) "finished counts" (counts p) (counts tp);
  Alcotest.(check string) "final freezes equal" (Kernel.freeze k) (Kernel.freeze tk)

(* Every subscribe swaps a closure out; the app must drop it. After
   10,000 classic round trips, each a subscribe and an unsubscribe, the
   upcall table holds only the one subscription still live. *)
let test_subscribe_keeps_live_closures () =
  let board = make_board () in
  let sizes = ref [] in
  let app a =
    let size () = sizes := Tock_userland.Emu.upcall_fn_count a :: !sizes in
    (match
       Tock_userland.Libtock.subscribe a ~driver:Driver_num.button ~sub:0
         (fun _ _ _ -> ())
     with
    | Ok () -> ()
    | Error _ -> raise (Tock_userland.Emu.App_panic_exn "button subscribe"));
    size ();
    for _ = 1 to 10_000 do
      ignore
        (Tock_userland.Libtock_sync.call_classic a ~driver:Driver_num.alarm
           ~sub:0 ~cmd:5 ~arg1:1 ~arg2:0)
    done;
    size ();
    (* A refused subscribe keeps nothing either. *)
    ignore
      (Tock_userland.Libtock.subscribe a ~driver:0x7777 ~sub:0 (fun _ _ _ -> ()));
    size ();
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"resubscriber" app);
  run_done board ~max_cycles:2_000_000_000;
  Alcotest.(check (list int)) "table sizes: live, after 10k, after refusal"
    [ 1; 1; 1 ] (List.rev !sizes)

(* An upcall queued against a pointer the app then swaps out is dropped
   at delivery: the removed closure never runs, nor does its successor. *)
let test_swapped_out_upcall_dropped () =
  let board = make_board () in
  let old_ran = ref false and new_ran = ref false and delivered = ref false in
  let app a =
    let p = Tock_userland.Emu.proc a in
    ignore
      (Tock_userland.Libtock.subscribe a ~driver:Driver_num.alarm ~sub:0
         (fun _ _ _ -> old_ran := true));
    ignore
      (Tock_userland.Libtock.command a ~driver:Driver_num.alarm ~cmd:5 ~arg1:1
         ~arg2:0);
    (* Burn cycles until the alarm's upcall is queued, still carrying the
       first pointer. *)
    let spins = ref 0 in
    while not (Process.has_pending_upcalls p) do
      incr spins;
      if !spins > 100_000 then
        raise (Tock_userland.Emu.App_panic_exn "alarm upcall never queued");
      Tock_userland.Emu.work a 100
    done;
    ignore
      (Tock_userland.Libtock.subscribe a ~driver:Driver_num.alarm ~sub:0
         (fun _ _ _ -> new_ran := true));
    delivered := Tock_userland.Libtock.yield_no_wait a;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"swapper" app);
  run_done board;
  Alcotest.(check bool) "the queued upcall was delivered" true !delivered;
  Alcotest.(check bool) "swapped-out closure did not run" false !old_ran;
  Alcotest.(check bool) "new closure did not run for it" false !new_ran

let test_allow_rw_flash_rejected () =
  (* Read-write allows must live in app RAM; pointing one at flash is
     INVAL (the kernel would otherwise write to ROM — paper 3.3.3's fault
     scenario). *)
  let board = make_board () in
  let result = ref None in
  let app a =
    let fs =
      match Tock_userland.Libtock.memop a ~op:Syscall.memop_flash_start ~arg:0 with
      | Syscall.Success_u32 v -> v
      | _ -> 0
    in
    result :=
      Some (Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:1 ~addr:fs ~len:4);
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"romwriter" app);
  run_done board;
  match !result with
  | Some (Error Error.INVAL) -> ()
  | Some (Ok _) -> Alcotest.fail "rw allow into flash accepted"
  | _ -> Alcotest.fail "app did not run"

let suite =
  [
    Alcotest.test_case "ipc byte messages" `Quick test_ipc_byte_messages;
    Alcotest.test_case "ipc send without mailbox" `Quick test_ipc_send_without_mailbox;
    Alcotest.test_case "process console over uart" `Quick test_process_console_over_uart;
    Alcotest.test_case "debug writer" `Quick test_debug_writer;
    Alcotest.test_case "debug + process interleave" `Quick test_debug_interleaves_with_process_output;
    Alcotest.test_case "subscribe swap" `Quick test_subscribe_swap_returns_old;
    Alcotest.test_case "syscall class accounting" `Quick test_syscall_class_accounting;
    Alcotest.test_case "subscribe keeps only live closures" `Quick
      test_subscribe_keeps_live_closures;
    Alcotest.test_case "swapped-out upcall dropped" `Quick
      test_swapped_out_upcall_dropped;
    Alcotest.test_case "allow-rw into flash rejected" `Quick test_allow_rw_flash_rejected;
  ]
