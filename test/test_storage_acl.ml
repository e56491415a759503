(* Persistent-storage ACLs: TBF write_id/read_ids enforced by the
   nonvolatile-storage capsule — the threat model's storage isolation. *)

open! Helpers
open Tock

let nv = Driver_num.nonvolatile_storage

let nv_write a data =
  let len = Bytes.length data in
  let addr = Tock_userland.Emu.get_buffer a ~tag:"nv" ~size:64 in
  Tock_userland.Emu.write_bytes a ~addr data;
  ignore (Tock_userland.Libtock.allow_ro a ~driver:nv ~num:0 ~addr ~len);
  let rec go tries =
    match
      Tock_userland.Libtock_sync.call_classic a ~driver:nv ~sub:1 ~cmd:3
        ~arg1:0 ~arg2:len
    with
    | Ok _ -> ()
    | Error Error.BUSY when tries > 0 ->
        Tock_userland.Libtock_sync.sleep_ticks a 32;
        go (tries - 1)
    | Error e -> raise (Tock_userland.Emu.App_panic_exn (Error.to_string e))
  in
  go 50

let nv_read a len =
  let addr = Tock_userland.Emu.get_buffer a ~tag:"nv" ~size:64 in
  ignore (Tock_userland.Libtock.allow_rw a ~driver:nv ~num:0 ~addr ~len:64);
  let rec go tries =
    match
      Tock_userland.Libtock_sync.call_classic a ~driver:nv ~sub:0 ~cmd:2
        ~arg1:0 ~arg2:len
    with
    | Ok (got, _, _) -> Tock_userland.Emu.read_bytes a ~addr ~len:got
    | Error Error.BUSY when tries > 0 ->
        Tock_userland.Libtock_sync.sleep_ticks a 32;
        go (tries - 1)
    | Error e -> raise (Tock_userland.Emu.App_panic_exn (Error.to_string e))
  in
  go 50

let select_region a wid =
  Tock_userland.Libtock.command a ~driver:nv ~cmd:4 ~arg1:wid ~arg2:0

let add_app_exn' board ~name ?storage main =
  match Tock_boards.Board.add_app board ~name ?storage main with
  | Ok p -> p
  | Error e -> Alcotest.failf "add_app %s: %s" name (Error.to_string e)

let test_read_grant () =
  let board = make_board () in
  let secret = "owned-by-7" in
  (* writer: write_id 7 *)
  let writer a =
    nv_write a (Bytes.of_string secret);
    Tock_userland.Libtock.exit a 0
  in
  let got_granted = ref "" and denied = ref None in
  (* reader: write_id 8, may read 7 *)
  let reader a =
    Tock_userland.Libtock_sync.sleep_ticks a 800;
    (match select_region a 7 with
    | Syscall.Success -> got_granted := Bytes.to_string (nv_read a (String.length secret))
    | r -> raise (Tock_userland.Emu.App_panic_exn (Format.asprintf "%a" Syscall.pp_ret r)));
    Tock_userland.Libtock.exit a 0
  in
  (* snoop: write_id 9, no grants *)
  let snoop a =
    Tock_userland.Libtock_sync.sleep_ticks a 800;
    (match select_region a 7 with
    | Syscall.Failure Error.INVAL -> denied := Some true
    | _ -> denied := Some false);
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn' board ~name:"writer" ~storage:(7, []) writer);
  ignore (add_app_exn' board ~name:"reader" ~storage:(8, [ 7 ]) reader);
  ignore (add_app_exn' board ~name:"snoop" ~storage:(9, []) snoop);
  run_done board ~max_cycles:600_000_000;
  Alcotest.(check string) "granted reader sees the data" secret !got_granted;
  Alcotest.(check (option bool)) "ungranted selection refused" (Some true) !denied

let test_shared_write_id () =
  (* Two apps with the same write_id share one region. *)
  let board = make_board () in
  let writer a =
    nv_write a (Bytes.of_string "shared!");
    Tock_userland.Libtock.exit a 0
  in
  let got = ref "" in
  let cohort a =
    Tock_userland.Libtock_sync.sleep_ticks a 800;
    got := Bytes.to_string (nv_read a 7);
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn' board ~name:"w" ~storage:(5, []) writer);
  ignore (add_app_exn' board ~name:"c" ~storage:(5, []) cohort);
  run_done board ~max_cycles:600_000_000;
  Alcotest.(check string) "same write_id shares the region" "shared!" !got

let test_private_without_ids () =
  (* Without storage ids (no TBF element): strictly per-process private
     regions, as before. *)
  let board = make_board () in
  let writer a =
    nv_write a (Bytes.of_string "privat!");
    Tock_userland.Libtock.exit a 0
  in
  let got = ref "" and sel = ref None in
  let other a =
    Tock_userland.Libtock_sync.sleep_ticks a 800;
    (* selection is refused without an ACL... *)
    (match select_region a 7 with
    | Syscall.Failure Error.INVAL -> sel := Some true
    | _ -> sel := Some false);
    (* ...and its own region is empty flash *)
    got := Bytes.to_string (nv_read a 7);
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"w" writer);
  ignore (add_app_exn board ~name:"o" other);
  run_done board ~max_cycles:600_000_000;
  Alcotest.(check (option bool)) "selection refused" (Some true) !sel;
  Alcotest.(check string) "own region empty" "\xff\xff\xff\xff\xff\xff\xff" !got

let test_tbf_roundtrip_storage () =
  let t =
    Tock_tbf.Tbf.make ~name:"acl" ~binary:(Bytes.of_string "x")
      ~storage:(0x11, [ 0x22; 0x33 ]) ()
  in
  match Tock_tbf.Tbf.parse (Tock_tbf.Tbf.serialize t) ~off:0 with
  | Ok { Tock_tbf.Tbf.tbf = t'; _ } ->
      Alcotest.(check bool) "roundtrip" true
        (Tock_tbf.Tbf.storage_permissions t' = Some (0x11, [ 0x22; 0x33 ]))
  | Error e -> Alcotest.failf "parse: %a" Tock_tbf.Tbf.pp_error e

let test_loader_applies_storage () =
  (* Loading from a TBF with a storage element gives the process its
     ids. *)
  let board = make_board () in
  let tbf =
    Tock_tbf.Tbf.make ~name:"stor" ~binary:(Bytes.of_string "stor-code")
      ~storage:(42, [ 7 ]) ()
  in
  let summary =
    Tock_boards.Board.load_tbf_sync board
      ~flash:(Tock_tbf.Tbf.serialize tbf)
      ~registry:[ ("stor", Tock_userland.Apps.hello) ]
  in
  match summary.Process_loader.outcomes with
  | [ Process_loader.Loaded p ] ->
      Alcotest.(check bool) "ids attached" true
        (Process.storage_ids p = Some (42, [ 7 ]))
  | _ -> Alcotest.fail "load failed"

let suite =
  [
    Alcotest.test_case "read grant" `Quick test_read_grant;
    Alcotest.test_case "shared write_id" `Quick test_shared_write_id;
    Alcotest.test_case "private without ids" `Quick test_private_without_ids;
    Alcotest.test_case "tbf storage roundtrip" `Quick test_tbf_roundtrip_storage;
    Alcotest.test_case "loader applies storage" `Quick test_loader_applies_storage;
  ]
