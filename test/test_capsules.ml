(* Capsules against a host-side oracle: console, RNG, sensors, digests,
   AES, IPC, radio, the legacy (v1) unsoundness reproduction, and grants. *)

open! Helpers
open Tock

let test_console_readback () =
  let board = make_board () in
  (* Feed bytes into uart0's receive path; an app reads them. *)
  let got = ref Bytes.empty in
  let app a =
    got := Tock_userland.Libtock_sync.console_read a 5;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"reader" app);
  (* Give the app time to post its read, then inject. *)
  Tock_boards.Board.run_cycles board 200_000;
  Tock_hw.Uart.rx_inject board.Tock_boards.Board.chip.Tock_hw.Chip.uart0
    (Bytes.of_string "input");
  run_done board;
  Alcotest.(check string) "read" "input" (Bytes.to_string !got)

(* Command 3 ends a pending read: SUCCESS, no read upcall, and bytes that
   arrive later are left for the next read. *)
let test_console_read_abort () =
  let board = make_board () in
  let console = Driver_num.console in
  let upcalls = ref 0 and aborted = ref None and got = ref Bytes.empty in
  let app a =
    let addr = Tock_userland.Emu.alloc a 16 in
    ignore (Tock_userland.Libtock.allow_rw a ~driver:console ~num:1 ~addr ~len:4);
    ignore
      (Tock_userland.Libtock.subscribe a ~driver:console ~sub:2 (fun _ _ _ ->
           incr upcalls));
    ignore (Tock_userland.Libtock.command a ~driver:console ~cmd:2 ~arg1:4 ~arg2:0);
    aborted := Some (Tock_userland.Libtock.command a ~driver:console ~cmd:3 ~arg1:0 ~arg2:0);
    (* A stray read upcall would run the callback while the app sleeps. *)
    Tock_userland.Libtock_sync.sleep_ticks a 60;
    got := Tock_userland.Libtock_sync.console_read a 4;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"reader" app);
  Tock_boards.Board.run_cycles board 200_000;
  Tock_hw.Uart.rx_inject board.Tock_boards.Board.chip.Tock_hw.Chip.uart0
    (Bytes.of_string "next");
  run_done board;
  Alcotest.(check bool) "abort answers SUCCESS" true (!aborted = Some Syscall.Success);
  Alcotest.(check int) "no read upcall" 0 !upcalls;
  Alcotest.(check string) "next read" "next" (Bytes.to_string !got)

let test_console_multiwriter_interleave () =
  let board = make_board () in
  for i = 1 to 3 do
    ignore
      (add_app_exn board ~name:(Printf.sprintf "w%d" i)
         (Tock_userland.Apps.counter ~n:4 ~period_ticks:32))
  done;
  run_done board;
  let out = Tock_boards.Board.output board in
  (* Every line made it intact (no torn writes across the mux). *)
  for i = 1 to 3 do
    for n = 1 to 4 do
      check_contains ~msg:"line intact" out (Printf.sprintf "w%d: count %d" i n)
    done
  done;
  Alcotest.(check int) "12 completed writes" 12
    (Tock_capsules.Console.writes_completed board.Tock_boards.Board.console)

let test_rng_fills_buffer () =
  let board = make_board () in
  let got = ref Bytes.empty in
  let app a =
    got := Tock_userland.Libtock_sync.rng_bytes a 12;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"rng" app);
  run_done board;
  Alcotest.(check int) "12 bytes" 12 (Bytes.length !got);
  Alcotest.(check bool) "not all zero" true
    (Bytes.exists (fun c -> c <> '\x00') !got)

let test_sensor_matches_env () =
  let board = make_board () in
  let reading = ref min_int and at = ref 0 in
  let app a =
    reading := Tock_userland.Libtock_sync.temperature_read a;
    at := 1;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"temp" app);
  run_done board;
  Alcotest.(check int) "app ran" 1 !at;
  (* The env is ~20 C with small ripple. *)
  Alcotest.(check bool) "plausible" true (!reading >= 1400 && !reading <= 2600)

let test_digest_drivers_match_host_crypto () =
  let board = make_board () in
  let data = Bytes.of_string "The quick brown fox jumps over the lazy dog" in
  let key = Bytes.of_string "key" in
  let sha_out = ref Bytes.empty and hmac_out = ref Bytes.empty in
  let app a =
    sha_out := Tock_userland.Libtock_sync.sha256 a data;
    hmac_out := Tock_userland.Libtock_sync.hmac_sha256 a ~key ~data;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"digest" app);
  run_done board;
  Alcotest.(check string) "sha through kernel == host"
    (hex (Tock_crypto.Sha256.digest_bytes data))
    (hex !sha_out);
  Alcotest.(check string) "hmac through kernel == host"
    (hex (Tock_crypto.Hmac.mac_bytes ~key data))
    (hex !hmac_out)

let test_aes_driver_roundtrip () =
  let board = make_board () in
  let key = Bytes.make 16 'K' and iv = Bytes.make 16 'I' in
  let plain = Bytes.of_string "attack at dawn!!" in
  let once = ref Bytes.empty and twice = ref Bytes.empty in
  let app a =
    once := Tock_userland.Libtock_sync.aes_ctr a ~key ~iv plain;
    twice := Tock_userland.Libtock_sync.aes_ctr a ~key ~iv !once;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"aes" app);
  run_done board;
  Alcotest.(check bool) "ciphertext differs" true (not (Bytes.equal !once plain));
  Alcotest.(check string) "CTR roundtrip" (Bytes.to_string plain) (Bytes.to_string !twice);
  (* Matches host-side CTR. *)
  let host =
    Tock_crypto.Aes128.ctr_transform (Tock_crypto.Aes128.expand_key key)
      ~nonce:iv plain
  in
  Alcotest.(check string) "matches host crypto" (hex host) (hex !once)

let test_ipc_pair () =
  let board = make_board () in
  let answers = ref [] in
  let server a =
    Tock_userland.Libtock_sync.ipc_register a;
    for _ = 1 to 3 do
      let sender, v = Tock_userland.Libtock_sync.ipc_next_notification a in
      ignore (Tock_userland.Libtock_sync.ipc_notify a ~pid:sender ~value:(v * 2))
    done;
    Tock_userland.Libtock.exit a 0
  in
  let client a =
    let rec discover n =
      match Tock_userland.Libtock_sync.ipc_discover a "server" with
      | Ok pid -> pid
      | Error _ when n > 0 ->
          Tock_userland.Libtock_sync.sleep_ticks a 16;
          discover (n - 1)
      | Error _ -> raise (Tock_userland.Emu.App_panic_exn "no server")
    in
    let pid = discover 20 in
    for i = 1 to 3 do
      ignore (Tock_userland.Libtock_sync.ipc_notify a ~pid ~value:(i * 10));
      let _, v = Tock_userland.Libtock_sync.ipc_next_notification a in
      answers := v :: !answers
    done;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"server" server);
  ignore (add_app_exn board ~name:"client" client);
  run_done board ~max_cycles:400_000_000;
  Alcotest.(check (list int)) "doubled" [ 60; 40; 20 ] !answers

let test_radio_driver_two_boards () =
  let net = Tock_boards.Signpost_board.create ~nodes:2 () in
  let a, b =
    match net.Tock_boards.Signpost_board.nodes with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let received = ref None in
  let sender app =
    Tock_userland.Libtock_sync.sleep_ticks app 64;
    (match
       Tock_userland.Libtock_sync.radio_send app ~dest:0xFFFF
         (Bytes.of_string "over-the-air")
     with
    | Ok () -> ()
    | Error e -> raise (Tock_userland.Emu.App_panic_exn (Error.to_string e)));
    Tock_userland.Libtock.exit app 0
  in
  let receiver app =
    Tock_userland.Libtock_sync.radio_listen app ~rx_buf_size:32;
    let src, payload = Tock_userland.Libtock_sync.radio_next app in
    received := Some (src, Bytes.to_string payload);
    Tock_userland.Libtock.exit app 0
  in
  ignore (add_app_exn a.Tock_boards.Signpost_board.node_board ~name:"tx" sender);
  ignore (add_app_exn b.Tock_boards.Signpost_board.node_board ~name:"rx" receiver);
  Tock_boards.Signpost_board.run_all net ~max_cycles:100_000_000;
  match !received with
  | Some (src, payload) ->
      Alcotest.(check int) "source addr" 0x100 src;
      Alcotest.(check string) "payload" "over-the-air" payload
  | None -> Alcotest.fail "no frame received"

let test_legacy_capsule_stale_write () =
  (* The paper's §3.3.1 unsoundness, reproduced: the v1-style capsule
     stashes a buffer at allow time; userspace revokes; the capsule's
     delayed write lands anyway and is counted as a stale use. *)
  let board = make_board () in
  let dnum = Tock_capsules.Legacy_console.driver_num in
  let leak = ref (-1) in
  let app a =
    let b1 = Tock_userland.Emu.alloc a 16 in
    let b2 = Tock_userland.Emu.alloc a 16 in
    ignore (Tock_userland.Libtock.allow_rw a ~driver:dnum ~num:0 ~addr:b1 ~len:16);
    (* Ask the capsule for a delayed write, then revoke by swapping in a
       different buffer before the alarm fires. *)
    ignore (Tock_userland.Libtock.command a ~driver:dnum ~cmd:1 ~arg1:50 ~arg2:0);
    ignore (Tock_userland.Libtock.allow_rw a ~driver:dnum ~num:0 ~addr:b2 ~len:16);
    (* b1 is "private" again from the app's perspective. Sleep past the
       delayed write. *)
    Tock_userland.Libtock_sync.sleep_ticks a 200;
    leak := Tock_userland.Emu.read_u8 a ~addr:b1;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"victim" app);
  run_done board ~max_cycles:100_000_000;
  let legacy = board.Tock_boards.Board.legacy in
  Alcotest.(check int) "stale write detected" 1
    (Tock_capsules.Legacy_console.stale_writes legacy);
  Alcotest.(check bool) "revoked buffer was mutated" true (!leak <> 0)

let test_grant_reentrancy_refused () =
  let before = Grant.reentries_refused () in
  let cap = Capability.Trusted_mint.memory_allocation () in
  let g = Grant.create ~cap ~name:"t" ~size_bytes:8 ~init:(fun () -> ref 0) in
  let board = make_board () in
  let p = add_app_exn board ~name:"x" Tock_userland.Apps.hello in
  (match
     Grant.enter g p (fun _ ->
         match Grant.enter g p (fun _ -> ()) with
         | Error Error.ALREADY -> ()
         | _ -> Alcotest.fail "reentrant enter must be refused")
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "outer enter: %s" (Error.to_string e));
  Alcotest.(check int) "counted" (before + 1) (Grant.reentries_refused ())

let test_grant_accounting_and_reset () =
  let cap = Capability.Trusted_mint.memory_allocation () in
  let g = Grant.create ~cap ~name:"acct" ~size_bytes:100 ~init:(fun () -> ()) in
  let board = make_board () in
  let p = add_app_exn board ~name:"y" Tock_userland.Apps.hello in
  let kb0 = Process.kernel_break p in
  (match Grant.enter g p (fun () -> ()) with Ok () -> () | Error e -> Alcotest.failf "%s" (Error.to_string e));
  Alcotest.(check int) "bytes charged" 100 (Process.grant_bytes_used p);
  Alcotest.(check int) "kernel break moved down" (kb0 - 100) (Process.kernel_break p);
  (* Second enter does not re-allocate. *)
  (match Grant.enter g p (fun () -> ()) with Ok () -> () | Error e -> Alcotest.failf "%s" (Error.to_string e));
  Alcotest.(check int) "no double charge" 100 (Process.grant_bytes_used p);
  Process.reset_syscall_state p;
  Alcotest.(check int) "reset returns memory" 0 (Process.grant_bytes_used p);
  Alcotest.(check int) "break restored" kb0 (Process.kernel_break p);
  Alcotest.(check bool) "grant gone" false (Grant.is_allocated g p)

let test_capability_mint_count () =
  let before = Capability.Trusted_mint.mint_count () in
  ignore (Capability.Trusted_mint.main_loop ());
  ignore (Capability.Trusted_mint.process_management ());
  Alcotest.(check int) "minting audited" (before + 2)
    (Capability.Trusted_mint.mint_count ())

let suite =
  [
    Alcotest.test_case "console readback" `Quick test_console_readback;
    Alcotest.test_case "console multi-writer" `Quick test_console_multiwriter_interleave;
    Alcotest.test_case "rng driver" `Quick test_rng_fills_buffer;
    Alcotest.test_case "sensor driver" `Quick test_sensor_matches_env;
    Alcotest.test_case "digest drivers vs host" `Quick test_digest_drivers_match_host_crypto;
    Alcotest.test_case "aes driver roundtrip" `Quick test_aes_driver_roundtrip;
    Alcotest.test_case "ipc pair" `Quick test_ipc_pair;
    Alcotest.test_case "radio driver (two boards)" `Quick test_radio_driver_two_boards;
    Alcotest.test_case "legacy v1 stale write" `Quick test_legacy_capsule_stale_write;
    Alcotest.test_case "console read abort" `Quick test_console_read_abort;
    Alcotest.test_case "grant reentrancy" `Quick test_grant_reentrancy_refused;
    Alcotest.test_case "grant accounting + reset" `Quick test_grant_accounting_and_reset;
    Alcotest.test_case "capability minting" `Quick test_capability_mint_count;
  ]
