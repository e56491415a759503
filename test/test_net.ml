(* The reliable link layer: CRC vectors, delivery over a lossy medium
   with retransmission, duplicate suppression, raw coexistence, and the
   userspace datagram driver across two boards. *)

open! Helpers
open Tock

let test_crc16_vector () =
  (* CRC-16/CCITT-FALSE("123456789") = 0x29B1 *)
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int) "check value" 0x29B1
    (Tock.Crc16.digest b ~off:0 ~len:9);
  (* any single-bit flip changes the CRC *)
  let c0 = Tock.Crc16.digest b ~off:0 ~len:9 in
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 0x10));
  Alcotest.(check bool) "bit flip detected" true
    (Tock.Crc16.digest b ~off:0 ~len:9 <> c0)

let crc16_reference_equiv_prop =
  (* The table-driven crc16 must agree with the retained bit-wise oracle
     on arbitrary slices, not just the check vector. *)
  qcheck "crc16: table-driven == bit-wise reference"
    QCheck2.Gen.(map Bytes.of_string (string_size (0 -- 300)))
    (fun b ->
      let total = Bytes.length b in
      let off = total / 3 in
      let len = total - off in
      Tock.Crc16.digest b ~off ~len
      = Tock.Crc16.Reference.digest b ~off ~len)

let two_nodes ?(loss_prob = 0.0) () =
  let net = Tock_boards.Signpost_board.create ~loss_prob ~nodes:2 () in
  match net.Tock_boards.Signpost_board.nodes with
  | [ a; b ] ->
      ( net,
        a.Tock_boards.Signpost_board.node_board,
        b.Tock_boards.Signpost_board.node_board )
  | _ -> assert false

let stack board = Option.get board.Tock_boards.Board.net

let test_reliable_over_lossy_medium () =
  (* 30% loss each way: acks + retransmission give at-most-once delivery
     with high success; what the layer *guarantees* is (a) an acked send
     was delivered and (b) no duplicates ever reach the client. *)
  let world, a, b = two_nodes ~loss_prob:0.3 () in
  let sa = stack a and sb = stack b in
  Tock_capsules.Net_stack.start sa;
  Tock_capsules.Net_stack.start sb;
  let received = ref [] in
  Tock_capsules.Net_stack.set_receive sb (fun ~src:_ payload ->
      received := Bytes.to_string payload :: !received);
  let outcomes = ref [] in
  let total = 12 in
  let rec send_next i =
    if i <= total then
      let msg = Bytes.of_string (Printf.sprintf "msg-%d" i) in
      match
        Tock_capsules.Net_stack.send sa ~dest:0x101 msg ~on_result:(fun r ->
            outcomes := (i, r) :: !outcomes;
            send_next (i + 1))
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send %d: %s" i (Error.to_string e)
  in
  send_next 1;
  Tock_boards.Signpost_board.run_all world ~max_cycles:600_000_000;
  Alcotest.(check int) "all sends resolved" total (List.length !outcomes);
  let delivered = !received in
  (* no duplicates *)
  let sorted = List.sort compare delivered in
  let rec no_dups = function
    | a :: (b :: _ as rest) -> a <> b && no_dups rest
    | _ -> true
  in
  Alcotest.(check bool) "no duplicates delivered" true (no_dups sorted);
  (* every acked message was actually delivered *)
  List.iter
    (fun (i, r) ->
      match r with
      | Ok () ->
          Alcotest.(check bool)
            (Printf.sprintf "acked msg-%d delivered" i)
            true
            (List.mem (Printf.sprintf "msg-%d" i) delivered)
      | Error Tock.Error.NOACK -> () (* bounded reliability: allowed *)
      | Error e -> Alcotest.failf "msg-%d: %s" i (Error.to_string e))
    !outcomes;
  (* the mechanism was actually exercised *)
  Alcotest.(check bool) "retransmissions happened" true
    (Tock_capsules.Net_stack.retransmissions sa > 0);
  Alcotest.(check bool) "most messages got through" true
    (List.length delivered >= total - 3)

let test_gives_up_without_receiver () =
  let world, a, _b = two_nodes () in
  let sa = stack a in
  Tock_capsules.Net_stack.start sa;
  let result = ref None in
  (match
     Tock_capsules.Net_stack.send sa ~dest:0x0DEAD
       (Bytes.of_string "anyone?") ~on_result:(fun r -> result := Some r)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" (Error.to_string e));
  Tock_boards.Signpost_board.run_all world ~max_cycles:100_000_000;
  match !result with
  | Some (Error Error.NOACK) -> ()
  | Some (Ok ()) -> Alcotest.fail "acked by nobody?"
  | _ -> Alcotest.fail "send never resolved"

let test_broadcast_fire_and_forget () =
  let world, a, b = two_nodes () in
  let sa = stack a and sb = stack b in
  Tock_capsules.Net_stack.start sa;
  Tock_capsules.Net_stack.start sb;
  let got = ref None and resolved = ref false in
  Tock_capsules.Net_stack.set_receive sb (fun ~src payload ->
      got := Some (src, Bytes.to_string payload));
  (match
     Tock_capsules.Net_stack.send sa ~dest:0xFFFF (Bytes.of_string "hear ye")
       ~on_result:(fun r -> resolved := Result.is_ok r)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" (Error.to_string e));
  Tock_boards.Signpost_board.run_all world ~max_cycles:50_000_000;
  Alcotest.(check bool) "resolved immediately" true !resolved;
  (match !got with
  | Some (0x100, "hear ye") -> ()
  | _ -> Alcotest.fail "broadcast not delivered");
  Alcotest.(check int) "no acks for broadcast" 0
    (Tock_capsules.Net_stack.acks_sent sb)

let test_raw_coexistence () =
  (* A raw radio-driver frame (no 'TK' header) passes through the stack
     to the raw client. *)
  let world, a, b = two_nodes () in
  let sb = stack b in
  Tock_capsules.Net_stack.start sb;
  let raw_got = ref None in
  Tock_capsules.Net_stack.set_raw_receive sb (fun ~src payload ->
      raw_got := Some (src, Bytes.to_string payload));
  (* Node a sends through the *raw* userspace radio driver. *)
  let sender app =
    match
      Tock_userland.Libtock_sync.radio_send app ~dest:0x101
        (Bytes.of_string "raw-frame")
    with
    | Ok () -> Tock_userland.Libtock.exit app 0
    | Error e -> raise (Tock_userland.Emu.App_panic_exn (Error.to_string e))
  in
  ignore (add_app_exn a ~name:"rawtx" sender);
  Tock_boards.Signpost_board.run_all world ~max_cycles:100_000_000;
  match !raw_got with
  | Some (0x100, "raw-frame") -> ()
  | _ -> Alcotest.fail "raw frame did not pass through"

let test_corrupt_frame_dropped () =
  let world, a, b = two_nodes () in
  let sb = stack b in
  Tock_capsules.Net_stack.start sb;
  let got = ref 0 in
  Tock_capsules.Net_stack.set_receive sb (fun ~src:_ _ -> incr got);
  (* Hand-craft a 'TK' frame with a bad CRC and push it through node a's
     raw radio path. *)
  let evil = Bytes.of_string "TK\x01\x02\x00\x01\x01\x01\x03abc\xde\xad" in
  let sender app =
    match Tock_userland.Libtock_sync.radio_send app ~dest:0x101 evil with
    | Ok () -> Tock_userland.Libtock.exit app 0
    | Error e -> raise (Tock_userland.Emu.App_panic_exn (Error.to_string e))
  in
  ignore (add_app_exn a ~name:"evil" sender);
  Tock_boards.Signpost_board.run_all world ~max_cycles:100_000_000;
  Alcotest.(check int) "not delivered" 0 !got;
  Alcotest.(check bool) "crc failure counted" true
    (Tock_capsules.Net_stack.crc_failures sb > 0)

let test_userspace_datagram_driver () =
  let world, a, b = two_nodes () in
  let net_driver = 0x30002 in
  let received = ref None in
  let rx_app app =
    let addr = Tock_userland.Emu.get_buffer app ~tag:"net-rx" ~size:64 in
    ignore (Tock_userland.Libtock.allow_rw app ~driver:net_driver ~num:0 ~addr ~len:64);
    ignore (Tock_userland.Libtock.command app ~driver:net_driver ~cmd:2 ~arg1:0 ~arg2:0);
    let got = ref None in
    ignore
      (Tock_userland.Libtock.subscribe app ~driver:net_driver ~sub:1
         (fun src len _ -> got := Some (src, len)));
    while !got = None do
      Tock_userland.Libtock.yield_wait app
    done;
    (match !got with
    | Some (src, len) ->
        received := Some (src, Bytes.to_string (Tock_userland.Emu.read_bytes app ~addr ~len))
    | None -> ());
    Tock_userland.Libtock.exit app 0
  in
  let tx_app app =
    Tock_userland.Libtock_sync.sleep_ticks app 64;
    let payload = Bytes.of_string "app-to-app datagram" in
    let addr = Tock_userland.Emu.get_buffer app ~tag:"net-tx" ~size:32 in
    Tock_userland.Emu.write_bytes app ~addr payload;
    ignore
      (Tock_userland.Libtock.allow_ro app ~driver:net_driver ~num:0 ~addr
         ~len:(Bytes.length payload));
    (match
       Tock_userland.Libtock_sync.call_classic app ~driver:net_driver ~sub:0
         ~cmd:1 ~arg1:0x101 ~arg2:(Bytes.length payload)
     with
    | Ok (0, _, _) -> ()
    | Ok (status, _, _) ->
        raise (Tock_userland.Emu.App_panic_exn (Printf.sprintf "status %d" status))
    | Error e -> raise (Tock_userland.Emu.App_panic_exn (Error.to_string e)));
    Tock_userland.Libtock.exit app 0
  in
  ignore (add_app_exn b ~name:"netrx" rx_app);
  ignore (add_app_exn a ~name:"nettx" tx_app);
  Tock_boards.Signpost_board.run_all world ~max_cycles:300_000_000;
  match !received with
  | Some (0x100, "app-to-app datagram") -> ()
  | Some (src, s) -> Alcotest.failf "got (%x, %S)" src s
  | None -> Alcotest.fail "datagram not delivered"

let test_fragmentation () =
  (* A 300-byte datagram fragments into acked frames and reassembles
     exactly, even over a lossy medium. *)
  let world, a, b = two_nodes ~loss_prob:0.15 () in
  let sa = stack a and sb = stack b in
  Tock_capsules.Net_stack.start sa;
  Tock_capsules.Net_stack.start sb;
  let big = Bytes.init 300 (fun i -> Char.chr ((i * 13 + 7) land 0xff)) in
  let got = ref None and resolved = ref None in
  Tock_capsules.Net_stack.set_receive sb (fun ~src payload ->
      got := Some (src, payload));
  (match
     Tock_capsules.Net_stack.send sa ~dest:0x101 big ~on_result:(fun r ->
         resolved := Some r)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" (Error.to_string e));
  Tock_boards.Signpost_board.run_all world ~max_cycles:400_000_000;
  (match !resolved with
  | Some (Ok ()) -> (
      match !got with
      | Some (0x100, payload) ->
          Alcotest.(check bool) "payload identical" true (Bytes.equal payload big);
          Alcotest.(check int) "one reassembly" 1
            (Tock_capsules.Net_stack.datagrams_reassembled sb)
      | _ -> Alcotest.fail "not delivered")
  | Some (Error Error.NOACK) ->
      (* bounded reliability may give up; then nothing must be delivered *)
      Alcotest.(check bool) "no partial delivery" true (!got = None)
  | _ -> Alcotest.fail "send never resolved");
  (* oversize and broadcast-large are refused *)
  (match
     Tock_capsules.Net_stack.send sa ~dest:0x101 (Bytes.create 2000)
       ~on_result:(fun _ -> ())
   with
  | Error Error.SIZE -> ()
  | _ -> Alcotest.fail "oversize accepted");
  match
    Tock_capsules.Net_stack.send sa ~dest:0xFFFF (Bytes.create 300)
      ~on_result:(fun _ -> ())
  with
  | Error Error.SIZE -> ()
  | _ -> Alcotest.fail "large broadcast accepted"

let max_dgram =
  Tock_capsules.Net_stack.max_fragments * Tock_capsules.Net_stack.frag_chunk

let frag_roundtrip_prop =
  (* Whole-system property: any datagram size (the generator leans on the
     boundary cases — empty, exactly one frame, exactly the fragment
     budget) survives the zero-copy fragmentation/reassembly path over a
     lossless medium byte-for-byte. *)
  qcheck ~count:8 "fragmentation: arbitrary sizes round-trip byte-equal"
    QCheck2.Gen.(
      pair
        (oneof
           [
             oneofl
               [
                 0;
                 1;
                 Tock_capsules.Net_stack.max_payload;
                 Tock_capsules.Net_stack.max_payload + 1;
                 max_dgram;
               ];
             int_range 0 max_dgram;
           ])
        (int_range 0 255))
    (fun (size, seed) ->
      let world, a, b = two_nodes () in
      let sa = stack a and sb = stack b in
      Tock_capsules.Net_stack.start sa;
      Tock_capsules.Net_stack.start sb;
      let payload =
        Bytes.init size (fun i -> Char.chr ((i * 31 + seed) land 0xff))
      in
      let got = ref None and resolved = ref None in
      Tock_capsules.Net_stack.set_receive sb (fun ~src:_ p -> got := Some p);
      (match
         Tock_capsules.Net_stack.send sa ~dest:0x101 payload
           ~on_result:(fun r -> resolved := Some r)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send size=%d: %s" size (Error.to_string e));
      Tock_boards.Signpost_board.run_all world ~max_cycles:600_000_000;
      match (!resolved, !got) with
      | Some (Ok ()), Some p -> Bytes.equal p payload
      | _ -> false)

let roundtrip_reference_equiv_prop =
  (* The in-place scatter-gather framing must be observationally identical
     to the retained copying reference: same parsed length, same bytes. *)
  qcheck "net: zero-copy round trip == copying reference"
    QCheck2.Gen.(
      map Bytes.of_string
        (string_size (0 -- Tock_capsules.Net_stack.max_payload)))
    (fun payload ->
      let n = Bytes.length payload in
      let out_fast = Bytes.make (max n 1) '\xAA' in
      let out_ref = Bytes.make (max n 1) '\xAA' in
      let nf =
        Tock_capsules.Net_stack.round_trip ~src:0x17 ~dst:0x2B
          (Subslice.of_bytes payload)
          (Subslice.of_bytes out_fast)
      in
      let nr =
        Tock_capsules.Net_stack.Reference.round_trip ~src:0x17 ~dst:0x2B
          payload out_ref
      in
      nf = nr && nf = n && Bytes.equal out_fast out_ref)

let crc16_fast_equiv_prop =
  qcheck "crc16: slicing-by-4 update_fast == bit-wise reference"
    QCheck2.Gen.(map Bytes.of_string (string_size (0 -- 300)))
    (fun b ->
      let total = Bytes.length b in
      let off = total / 5 in
      let len = total - off in
      Crc16.update_fast Crc16.init b ~off ~len
      = Crc16.Reference.update Crc16.init b ~off ~len)

let test_process_info () =
  let board = make_board () in
  let pi = Driver_num.process_info in
  let facts = ref None in
  let app a =
    let u32 cmd arg =
      match Tock_userland.Libtock.command a ~driver:pi ~cmd ~arg1:arg ~arg2:0 with
      | Syscall.Success_u32 v -> v
      | _ -> -1
    in
    facts := Some (u32 1 0, u32 2 0, u32 4 (u32 1 0));
    Tock_userland.Libtock.exit a 0
  in
  let p = add_app_exn board ~name:"introspect" app in
  ignore (add_app_exn board ~name:"other" Tock_userland.Apps.hello);
  run_done board;
  match !facts with
  | Some (own, count, state) ->
      Alcotest.(check int) "own pid" (Process.id p) own;
      Alcotest.(check int) "count" 2 count;
      Alcotest.(check int) "own state = running" 1 state
  | None -> Alcotest.fail "app did not run"

let test_adc_driver () =
  let board = make_board () in
  let readings = ref [] in
  let app a =
    for ch = 0 to 2 do
      match
        Tock_userland.Libtock_sync.call_classic a ~driver:Driver_num.adc
          ~sub:0 ~cmd:1 ~arg1:ch ~arg2:0
      with
      | Ok (c, v, _) -> readings := (c, v) :: !readings
      | Error e -> raise (Tock_userland.Emu.App_panic_exn (Error.to_string e))
    done;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"adc" app);
  run_done board;
  let rs = List.rev !readings in
  Alcotest.(check int) "three samples" 3 (List.length rs);
  List.iteri
    (fun i (c, v) ->
      Alcotest.(check int) "channel echoed" i c;
      Alcotest.(check bool) "12-bit range" true (v >= 0 && v <= 4095))
    rs;
  (* channel 0 is the battery: near 3300 at boot *)
  match rs with
  | (0, v) :: _ -> Alcotest.(check bool) "battery plausible" true (v > 3000)
  | _ -> ()

let suite =
  [
    Alcotest.test_case "crc16 vector" `Quick test_crc16_vector;
    crc16_reference_equiv_prop;
    Alcotest.test_case "reliable over 30% loss" `Quick test_reliable_over_lossy_medium;
    Alcotest.test_case "gives up without receiver" `Quick test_gives_up_without_receiver;
    Alcotest.test_case "broadcast" `Quick test_broadcast_fire_and_forget;
    Alcotest.test_case "raw coexistence" `Quick test_raw_coexistence;
    Alcotest.test_case "corrupt frame dropped" `Quick test_corrupt_frame_dropped;
    Alcotest.test_case "userspace datagrams" `Quick test_userspace_datagram_driver;
    Alcotest.test_case "fragmentation" `Quick test_fragmentation;
    frag_roundtrip_prop;
    roundtrip_reference_equiv_prop;
    crc16_fast_equiv_prop;
    Alcotest.test_case "process info" `Quick test_process_info;
    Alcotest.test_case "adc driver" `Quick test_adc_driver;
  ]
