(* The U2F-style user-presence flow: a challenge is only answered after a
   physical button press, driving the GPIO-interrupt -> button capsule ->
   upcall path end to end; plus extra property tests accumulated late in
   development. *)

open! Helpers
open Tock

let test_u2f_button_gate () =
  let board = make_board () in
  let chip = board.Tock_boards.Board.chip in
  let responses = ref [] in
  let requester a =
    (* let the token register *and* park in its notification wait: an IPC
       notify sent before the receiver subscribes is dropped (null
       upcall), like any unsubscribed upcall in Tock *)
    Tock_userland.Libtock_sync.sleep_ticks a 400;
    let rec discover tries =
      match Tock_userland.Libtock_sync.ipc_discover a "u2f" with
      | Ok pid -> pid
      | Error _ when tries > 0 ->
          Tock_userland.Libtock_sync.sleep_ticks a 32;
          discover (tries - 1)
      | Error _ -> raise (Tock_userland.Emu.App_panic_exn "no u2f service")
    in
    let pid = discover 50 in
    for i = 1 to 2 do
      (match Tock_userland.Libtock_sync.ipc_notify a ~pid ~value:(0xAA00 + i) with
      | Ok () ->
          let _, r = Tock_userland.Libtock_sync.ipc_next_notification a in
          responses := r :: !responses
      | Error e -> raise (Tock_userland.Emu.App_panic_exn (Error.to_string e)))
    done;
    Tock_userland.Libtock.exit a 0
  in
  ignore
    (Tock_boards.Board.add_app board ~name:"u2f"
       ~flash:(Tock_userland.Apps.make_token_binary ())
       (Tock_userland.Apps.u2f_token ~challenges:2));
  ignore (add_app_exn board ~name:"req" requester);
  (* The "user": press button 0 (gpio pin 4, active-high) periodically.
     The press only matters while the token is waiting, proving the
     approval gate. *)
  let sim = board.Tock_boards.Board.sim in
  let rec press_later delay =
    ignore
      (Tock_hw.Sim.at sim ~delay (fun () ->
           Tock_hw.Gpio.drive chip.Tock_hw.Chip.gpio ~pin:4 true;
           ignore
             (Tock_hw.Sim.at sim ~delay:20_000 (fun () ->
                  Tock_hw.Gpio.drive chip.Tock_hw.Chip.gpio ~pin:4 false));
           if Tock_hw.Sim.now sim < 200_000_000 then press_later 2_000_000))
  in
  press_later 2_000_000;
  run_done board ~max_cycles:600_000_000;
  let out = Tock_boards.Board.output board in
  check_contains ~msg:"asked for touch" out "u2f: touch to approve";
  check_contains ~msg:"served" out "u2f: served";
  Alcotest.(check int) "two approvals" 2 (List.length !responses);
  (* Response = truncated HMAC(token_key, challenge), checkable host-side. *)
  let expect challenge =
    let msg = Bytes.init 4 (fun i -> Char.chr ((challenge lsr (i * 8)) land 0xff)) in
    let tag = Tock_crypto.Hmac.mac_bytes ~key:Tock_userland.Apps.token_key msg in
    (Char.code (Bytes.get tag 0)
    lor (Char.code (Bytes.get tag 1) lsl 8)
    lor (Char.code (Bytes.get tag 2) lsl 16)
    lor (Char.code (Bytes.get tag 3) lsl 24))
    land 0xFFFF
  in
  Alcotest.(check (list int)) "hmac responses correct"
    [ expect 0xAA02; expect 0xAA01 ]
    !responses

(* ---- late property tests ---- *)

let tbf_concat_prop =
  qcheck ~count:40 "tbf: parse_all recovers any concatenation"
    QCheck2.Gen.(list_size (1 -- 6) (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 10)) (int_range 0 120)))
    (fun specs ->
      let tbfs =
        List.map
          (fun (name, blen) ->
            Tock_tbf.Tbf.serialize
              (Tock_tbf.Tbf.make ~name ~binary:(Bytes.make blen 'b') ()))
          specs
      in
      let apps, err = Tock_tbf.Tbf.parse_all (Bytes.concat Bytes.empty tbfs) in
      err = None
      && List.map (fun (i : Tock_tbf.Tbf.image) -> Tock_tbf.Tbf.package_name i.tbf) apps
         = List.map (fun (n, _) -> Some n) specs)

let net_frame_prop =
  qcheck ~count:60 "net: crc detects any single-byte corruption"
    QCheck2.Gen.(pair (string_size (0 -- 60)) (int_range 0 1000))
    (fun (payload, poke) ->
      (* Build a frame through the public pieces: crc16 over a synthetic
         header+payload, then corrupt one byte and observe a mismatch. *)
      let b = Bytes.of_string ("HDR" ^ payload) in
      let crc = Tock.Crc16.digest b ~off:0 ~len:(Bytes.length b) in
      let i = poke mod Bytes.length b in
      let b' = Bytes.copy b in
      Bytes.set b' i (Char.chr (Char.code (Bytes.get b' i) lxor 0x40));
      Tock.Crc16.digest b' ~off:0 ~len:(Bytes.length b') <> crc)

let mpu_grow_monotone_prop =
  qcheck ~count:60 "mpu: growing the app break never shrinks accessibility"
    QCheck2.Gen.(list_size (1 -- 10) (int_range 0 2000))
    (fun deltas ->
      let mpu = Tock_hw.Mpu.create Tock_hw.Mpu.Cortex_m in
      let c = Tock_hw.Mpu.new_config mpu in
      match
        Tock_hw.Mpu.allocate_app_memory_region mpu c
          ~unallocated_start:0x2000_0000 ~unallocated_size:0x100000
          ~min_memory_size:32768 ~initial_app_memory_size:1024
          ~initial_kernel_memory_size:512
      with
      | None -> false
      | Some (start, size) ->
          let brk = ref (start + 1024) in
          let prev_end = ref (Option.get (Tock_hw.Mpu.app_accessible_end c)) in
          List.for_all
            (fun d ->
              let new_brk = min (start + size - 512) (!brk + d) in
              match
                Tock_hw.Mpu.update_app_memory_region mpu c ~app_break:new_brk
                  ~kernel_break:(start + size - 512)
              with
              | Ok () ->
                  brk := new_brk;
                  let e = Option.get (Tock_hw.Mpu.app_accessible_end c) in
                  let ok = e >= !prev_end && e >= new_brk in
                  prev_end := e;
                  ok
              | Error _ -> true (* granularity refusal is allowed *))
            deltas)

let prng_bound_prop =
  qcheck "prng: int ~bound stays in range for any seed"
    QCheck2.Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Tock_crypto.Prng.create ~seed:(Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Tock_crypto.Prng.int rng ~bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let subslice_blit_roundtrip_prop =
  qcheck "subslice: blit out then in is identity on the window"
    QCheck2.Gen.(pair (int_range 1 100) (int_range 0 99))
    (fun (size, pos) ->
      let pos = pos mod size in
      let s = Subslice.create size in
      for i = 0 to size - 1 do
        Subslice.set_u8 s i (i * 7 land 0xff)
      done;
      Subslice.slice_from s pos;
      let out = Bytes.create (Subslice.length s) in
      Subslice.blit_to_bytes s ~src_off:0 ~dst:out ~dst_off:0
        ~len:(Subslice.length s);
      Subslice.fill s '\x00';
      Subslice.blit_from_bytes ~src:out ~src_off:0 s ~dst_off:0
        ~len:(Subslice.length s);
      Subslice.reset s;
      let ok = ref true in
      for i = 0 to size - 1 do
        if Subslice.get_u8 s i <> i * 7 land 0xff then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "u2f button gate" `Quick test_u2f_button_gate;
    tbf_concat_prop;
    net_frame_prop;
    mpu_grow_monotone_prop;
    prng_bound_prop;
    subslice_blit_roundtrip_prop;
  ]
