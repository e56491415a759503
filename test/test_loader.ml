(* Process loading (paper §3.4): synchronous header-only boot,
   asynchronous credential-checked boot, dynamic install, and rejection
   paths. *)

open! Helpers
open Tock

let registry =
  [
    ("alpha", Tock_userland.Apps.hello);
    ("beta", Tock_userland.Apps.counter ~n:2 ~period_ticks:32);
    ("gamma", Tock_userland.Apps.kv_user ~rounds:3);
  ]

let mk_tbf ?(name = "alpha") () =
  Tock_tbf.Tbf.make ~name ~binary:(Bytes.of_string (name ^ "-code")) ()

let test_sync_load () =
  let board = make_board () in
  let flash =
    Bytes.concat Bytes.empty
      [ Tock_tbf.Tbf.serialize (mk_tbf ~name:"alpha" ());
        Tock_tbf.Tbf.serialize (mk_tbf ~name:"beta" ()) ]
  in
  let summary = Tock_boards.Board.load_tbf_sync board ~flash ~registry in
  Alcotest.(check int) "two headers" 2 summary.Process_loader.headers_parsed;
  Alcotest.(check int) "two loaded" 2
    (List.length
       (List.filter
          (function Process_loader.Loaded _ -> true | _ -> false)
          summary.Process_loader.outcomes));
  run_done board;
  check_contains ~msg:"alpha ran" (Tock_boards.Board.output board) "Hello from alpha!";
  check_contains ~msg:"beta ran" (Tock_boards.Board.output board) "beta: count 2"

let test_sync_load_unknown_app () =
  let board = make_board () in
  let flash = Tock_tbf.Tbf.serialize (mk_tbf ~name:"unknown" ()) in
  let summary = Tock_boards.Board.load_tbf_sync board ~flash ~registry in
  match summary.Process_loader.outcomes with
  | [ Process_loader.Rejected { reason; _ } ] ->
      check_contains ~msg:"reason" reason "registry"
  | _ -> Alcotest.fail "expected one rejection"

let test_disabled_flag_not_started () =
  let board = make_board () in
  let tbf =
    Tock_tbf.Tbf.make ~flags:0 ~name:"alpha"
      ~binary:(Bytes.of_string "alpha-code") ()
  in
  let summary =
    Tock_boards.Board.load_tbf_sync board
      ~flash:(Tock_tbf.Tbf.serialize tbf) ~registry
  in
  (match summary.Process_loader.outcomes with
  | [ Process_loader.Loaded p ] ->
      Alcotest.(check bool) "unstarted" true (Process.state p = Process.Unstarted)
  | _ -> Alcotest.fail "expected loaded-but-unstarted");
  run_done board;
  Alcotest.(check string) "no output" "" (Tock_boards.Board.output board)

let rot_setup ?policy () = Tock_boards.Rot_board.create ?policy ()

let load_and_wait rot apps =
  let board = rot.Tock_boards.Rot_board.board in
  let summary = ref None in
  Tock_boards.Rot_board.load_signed rot ~apps ~registry ~on_done:(fun s ->
      summary := Some s);
  let ok =
    Tock_boards.Board.run_until board ~max_cycles:200_000_000 (fun () ->
        !summary <> None)
  in
  Alcotest.(check bool) "loader finished" true ok;
  Option.get !summary

let outcome_names summary =
  List.map
    (function
      | Process_loader.Loaded p -> "ok:" ^ Process.name p
      | Process_loader.Rejected { app_name; _ } -> "no:" ^ app_name)
    summary.Process_loader.outcomes

let test_async_signed_load () =
  let rot = rot_setup () in
  let good = Tock_boards.Rot_board.sign_app rot ~name:"alpha" () in
  let evil = Tock_boards.Rot_board.tamper (Tock_boards.Rot_board.sign_app rot ~name:"beta" ()) in
  let unsigned = mk_tbf ~name:"gamma" () in
  let summary = load_and_wait rot [ good; evil; unsigned ] in
  Alcotest.(check (list string)) "verdicts"
    [ "ok:alpha"; "no:beta"; "no:gamma" ]
    (outcome_names summary);
  (* Checker actually used the hardware engines. *)
  Alcotest.(check int) "three checks" 3
    (Tock_capsules.Signature_checker.checks_run rot.Tock_boards.Rot_board.checker)

let test_wrong_key_rejected () =
  let rot = rot_setup () in
  (* Sign with a different keypair than the board trusts. *)
  let rogue_rng = Tock_crypto.Prng.create ~seed:0xBADL in
  let rogue_sk, _ = Tock_crypto.Schnorr.keypair rogue_rng in
  let tbf = Tock_tbf.Tbf.add_schnorr (mk_tbf ~name:"alpha" ()) ~sk:rogue_sk ~rng:rogue_rng in
  let summary = load_and_wait rot [ tbf ] in
  Alcotest.(check (list string)) "rejected" [ "no:alpha" ] (outcome_names summary)

let test_sha_policy () =
  (* Integrity-only policy accepts a SHA credential and still rejects a
     tampered image. *)
  let rot = rot_setup ~policy:`Require_sha256 () in
  let good = Tock_tbf.Tbf.add_sha256 (mk_tbf ~name:"alpha" ()) in
  let bad =
    let t = Tock_tbf.Tbf.add_sha256 (mk_tbf ~name:"beta" ()) in
    Tock_boards.Rot_board.tamper t
  in
  let summary = load_and_wait rot [ good; bad ] in
  Alcotest.(check (list string)) "sha policy" [ "ok:alpha"; "no:beta" ]
    (outcome_names summary)

let test_hmac_policy () =
  let key = Bytes.of_string "vendor-provisioned-key" in
  let rot = rot_setup ~policy:(`Require_hmac key) () in
  let good = Tock_tbf.Tbf.add_hmac (mk_tbf ~name:"alpha" ()) ~key_id:1 ~key in
  let wrong_key =
    Tock_tbf.Tbf.add_hmac (mk_tbf ~name:"beta" ()) ~key_id:1
      ~key:(Bytes.of_string "wrong")
  in
  let summary = load_and_wait rot [ good; wrong_key ] in
  Alcotest.(check (list string)) "hmac policy" [ "ok:alpha"; "no:beta" ]
    (outcome_names summary)

let test_dynamic_install () =
  let rot = rot_setup () in
  let board = rot.Tock_boards.Rot_board.board in
  (* Boot empty; install at "runtime". *)
  let tbf = Tock_boards.Rot_board.sign_app rot ~name:"beta" () in
  let result = ref None in
  Process_loader.install board.Tock_boards.Board.kernel
    ~cap:board.Tock_boards.Board.ext_cap ~pm_cap:board.Tock_boards.Board.pm_cap
    ~flash_base:(Tock_boards.Board.flash_app_base + 0x10000)
    ~tbf:(Tock_tbf.Tbf.serialize tbf)
    ~lookup:(Tock_userland.Apps.registry registry)
    ~checker:(Tock_capsules.Signature_checker.checker rot.Tock_boards.Rot_board.checker)
    ~on_done:(fun r -> result := Some r);
  let ok =
    Tock_boards.Board.run_until board ~max_cycles:100_000_000 (fun () ->
        !result <> None)
  in
  Alcotest.(check bool) "install finished" true ok;
  (match !result with
  | Some (Ok p) -> Alcotest.(check string) "name" "beta" (Process.name p)
  | Some (Error e) -> Alcotest.failf "install failed: %s" e
  | None -> assert false);
  run_done board;
  check_contains ~msg:"installed app ran" (Tock_boards.Board.output board)
    "beta: count 2"

let test_install_rejects_garbage () =
  let rot = rot_setup () in
  let board = rot.Tock_boards.Rot_board.board in
  let result = ref None in
  Process_loader.install board.Tock_boards.Board.kernel
    ~cap:board.Tock_boards.Board.ext_cap ~pm_cap:board.Tock_boards.Board.pm_cap
    ~flash_base:Tock_boards.Board.flash_app_base
    ~tbf:(Bytes.make 64 '\x99')
    ~lookup:(Tock_userland.Apps.registry registry)
    ~checker:Process_loader.accept_all_checker
    ~on_done:(fun r -> result := Some r);
  match !result with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "garbage TBF must be rejected synchronously"

let test_async_loader_timing () =
  (* The async loader takes real simulated time (crypto engine latency);
     the sync loader is near-instant. This is the shape behind the
     [e-process-load] experiment. *)
  let rot = rot_setup () in
  let board = rot.Tock_boards.Rot_board.board in
  let t0 = Tock_hw.Sim.now board.Tock_boards.Board.sim in
  let apps = List.init 4 (fun i ->
      Tock_boards.Rot_board.sign_app rot ~name:(if i = 0 then "alpha" else "beta") ())
  in
  ignore (load_and_wait rot apps);
  let elapsed = Tock_hw.Sim.now board.Tock_boards.Board.sim - t0 in
  (* Each verify costs >= 120k cycles on the PKE engine. *)
  Alcotest.(check bool) "credential checking dominates" true (elapsed > 4 * 120_000)

(* ---- images as stored: unknown TLVs, stored slices, one step ---- *)

let get16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let put16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let get32 b off = get16 b off lor (get16 b (off + 2) lsl 16)

let put32 b off v =
  put16 b off (v land 0xffff);
  put16 b (off + 2) ((v lsr 16) land 0xffff)

(* The header checksum: XOR of the header's words, the checksum word
   (offset 12) excepted. *)
let fix_checksum b =
  let x = ref 0 in
  for i = 0 to (get16 b 2 / 4) - 1 do
    if i <> 3 then x := !x lxor get32 b (4 * i)
  done;
  put32 b 12 !x

(* [make]'s first TLV is Program: its payload starts at 20, with the
   binary start at +0 and the binary end at +12. *)
let program_binary_end = 32

(* A serialized image with one 8-byte TLV the parser does not know
   spliced in after the header's TLVs, the header fixed up around it
   (header size, total size, the Program TLV's binary start and end,
   checksum), and a SHA-256 credential over the stored integrity region
   in the footer reserve. Returns the image and the unknown TLV's
   offset. *)
let with_unknown_tlv name =
  let raw = Tock_tbf.Tbf.serialize (mk_tbf ~name ()) in
  let hsize = get16 raw 2 in
  let tlv = Bytes.of_string "\x42\x00\x04\x00vNxt" in
  let b =
    Bytes.concat Bytes.empty
      [ Bytes.sub raw 0 hsize; tlv; Bytes.sub raw hsize (Bytes.length raw - hsize) ]
  in
  put16 b 2 (hsize + 8);
  put32 b 4 (get32 b 4 + 8);
  put32 b 20 (get32 b 20 + 8);
  put32 b program_binary_end (get32 b program_binary_end + 8);
  fix_checksum b;
  let bend = get32 b program_binary_end in
  put16 b bend 0x80;
  put16 b (bend + 2) 32;
  Bytes.blit (Tock_crypto.Sha256.digest_bytes (Bytes.sub b 0 bend)) 0 b (bend + 4) 32;
  put16 b (bend + 36) 0x7F;
  put16 b (bend + 38) (Bytes.length b - bend - 40);
  (b, hsize)

let async_outcomes rot flash =
  let board = rot.Tock_boards.Rot_board.board in
  let summary = ref None in
  Process_loader.load_async board.Tock_boards.Board.kernel
    ~cap:board.Tock_boards.Board.pm_cap ~flash_base:Tock_boards.Board.flash_app_base
    ~flash ~lookup:(Tock_userland.Apps.registry registry)
    ~checker:(Tock_capsules.Signature_checker.checker rot.Tock_boards.Rot_board.checker)
    ~on_done:(fun s -> summary := Some s);
  Alcotest.(check bool) "loader finished" true
    (Tock_boards.Board.run_until board ~max_cycles:100_000_000 (fun () -> !summary <> None));
  (Option.get !summary).Process_loader.outcomes

let install_result rot image =
  let board = rot.Tock_boards.Rot_board.board in
  let result = ref None in
  Process_loader.install board.Tock_boards.Board.kernel
    ~cap:board.Tock_boards.Board.ext_cap ~pm_cap:board.Tock_boards.Board.pm_cap
    ~flash_base:Tock_boards.Board.flash_app_base ~tbf:image
    ~lookup:(Tock_userland.Apps.registry registry)
    ~checker:(Tock_capsules.Signature_checker.checker rot.Tock_boards.Rot_board.checker)
    ~on_done:(fun r -> result := Some r);
  Alcotest.(check bool) "install finished" true
    (Tock_boards.Board.run_until board ~max_cycles:100_000_000 (fun () -> !result <> None));
  Option.get !result

let check_flash_image ~msg expected p =
  Alcotest.(check string) msg (hex expected) (hex (Process.flash_image p))

(* The credential covers the bytes as stored, unknown TLV included, so
   the image loads on both checked paths, and the process runs on those
   bytes. *)
let test_unknown_tlv_loads () =
  let image, _ = with_unknown_tlv "alpha" in
  let sha () = rot_setup ~policy:`Require_sha256 () in
  (match async_outcomes (sha ()) image with
  | [ Process_loader.Loaded p ] -> check_flash_image ~msg:"load_async flash" image p
  | _ -> Alcotest.fail "load_async: expected the image to load");
  match install_result (sha ()) image with
  | Ok p -> check_flash_image ~msg:"install flash" image p
  | Error e -> Alcotest.failf "install: %s" e

(* A flipped byte in the unknown TLV is inside the integrity region: the
   image that loaded before the flip is rejected after it. *)
let test_flipped_unknown_tlv_rejected () =
  let image, at = with_unknown_tlv "alpha" in
  let sha () = rot_setup ~policy:`Require_sha256 () in
  (match async_outcomes (sha ()) image with
  | [ Process_loader.Loaded _ ] -> ()
  | _ -> Alcotest.fail "the unflipped image must load");
  Bytes.set image (at + 5) (Char.chr (Char.code (Bytes.get image (at + 5)) lxor 0x20));
  fix_checksum image;
  (match async_outcomes (sha ()) image with
  | [ Process_loader.Rejected { reason; _ } ] ->
      Alcotest.(check string) "load_async reason" "no acceptable credential" reason
  | _ -> Alcotest.fail "load_async: expected a rejection");
  match install_result (sha ()) image with
  | Error e -> Alcotest.(check string) "install reason" "no acceptable credential" e
  | Ok _ -> Alcotest.fail "install: expected a rejection"

(* Every loaded process's flash is the slice of flash its image occupies. *)
let test_flash_image_is_stored_slice () =
  let images =
    [ Tock_tbf.Tbf.serialize (mk_tbf ~name:"alpha" ()); fst (with_unknown_tlv "beta");
      Tock_tbf.Tbf.serialize (Tock_tbf.Tbf.add_sha256 (mk_tbf ~name:"gamma" ())) ]
  in
  let board = make_board () in
  let summary =
    Tock_boards.Board.load_tbf_sync board ~flash:(Bytes.concat Bytes.empty images) ~registry
  in
  Alcotest.(check int) "three images" 3 (List.length summary.Process_loader.outcomes);
  List.iter2
    (fun expected -> function
      | Process_loader.Loaded p ->
          check_flash_image ~msg:(Process.name p ^ " flash") expected p
      | Process_loader.Rejected { app_name; reason } ->
          Alcotest.failf "%s rejected: %s" app_name reason)
    images summary.Process_loader.outcomes

(* One image of a random flash: name, RAM, permissions, storage ids,
   credentials and footer reserve. "ghost" is not in the registry. *)
let gen_image =
  QCheck2.Gen.(
    let* name = oneofl [ "alpha"; "beta"; "gamma"; "ghost" ] in
    let* min_ram = int_range 256 20_000 in
    let* permissions =
      opt (list_size (0 -- 3) (pair (oneofl [ 0x0; 0x1; 0x40003 ]) (int_range 0 0xff)))
    in
    let* storage = opt (pair (int_range 1 9) (list_size (0 -- 2) (int_range 1 9))) in
    let* creds = list_size (0 -- 2) (oneofl [ `Sha; `Hmac; `Schnorr ]) in
    let+ footer_space = oneofl (if creds = [] then [ 0; 128 ] else [ 80; 128; 200 ]) in
    (name, min_ram, permissions, storage, creds, footer_space))

let print_image (name, min_ram, permissions, storage, creds, footer_space) =
  Printf.sprintf "%s ram %d perms %s storage %s creds %d footer %d" name min_ram
    (match permissions with None -> "-" | Some l -> string_of_int (List.length l))
    (match storage with None -> "-" | Some (w, r) -> Printf.sprintf "%d/%d" w (List.length r))
    (List.length creds) footer_space

let build_image (name, min_ram, permissions, storage, creds, footer_space) =
  let sk, _ = Tock_crypto.Schnorr.keypair (Tock_crypto.Prng.create ~seed:7L) in
  let rng = Tock_crypto.Prng.create ~seed:11L in
  let t =
    Tock_tbf.Tbf.make ~min_ram ?permissions ?storage ~footer_space ~name
      ~binary:(Bytes.of_string (name ^ "-code")) ()
  in
  Tock_tbf.Tbf.serialize
    (List.fold_left
       (fun t -> function
         | `Sha -> Tock_tbf.Tbf.add_sha256 t
         | `Hmac -> Tock_tbf.Tbf.add_hmac t ~key_id:1 ~key:(Bytes.of_string "k")
         | `Schnorr -> Tock_tbf.Tbf.add_schnorr t ~sk ~rng)
       t creds)

(* What a path did with each image: the process it created (name and
   flash base) or the rejection, and whether a created process's flash
   is the image's stored bytes. *)
let describe stored = function
  | Ok p ->
      ( Printf.sprintf "ok:%s@%x" (Process.name p) (Process.flash_base p),
        Bytes.equal (Process.flash_image p) stored )
  | Error reason -> ("no:" ^ reason, true)

let of_outcome = function
  | Process_loader.Loaded p -> Ok p
  | Process_loader.Rejected { reason; _ } -> Error reason

let loader_paths_prop =
  qcheck ~count:60 "loader paths agree"
    ~print:(fun l -> String.concat "; " (List.map print_image l))
    QCheck2.Gen.(list_size (1 -- 6) gen_image)
    (fun specs ->
      let images = List.map build_image specs in
      let flash = Bytes.concat Bytes.empty images in
      let lookup = Tock_userland.Apps.registry registry in
      let base = Tock_boards.Board.flash_app_base in
      let run load =
        let board = make_board () in
        let results = load board in
        (List.map2 describe images results, Tock_hw.Sim.now board.Tock_boards.Board.sim)
      in
      let outcomes s = List.map of_outcome s.Process_loader.outcomes in
      let sync =
        run (fun b ->
            outcomes
              (Process_loader.load_sync b.Tock_boards.Board.kernel
                 ~cap:b.Tock_boards.Board.pm_cap ~flash_base:base ~flash ~lookup))
      in
      let async =
        run (fun b ->
            let got = ref [] in
            Process_loader.load_async b.Tock_boards.Board.kernel
              ~cap:b.Tock_boards.Board.pm_cap ~flash_base:base ~flash ~lookup
              ~checker:Process_loader.accept_all_checker
              ~on_done:(fun s -> got := outcomes s);
            !got)
      in
      let installed =
        run (fun b ->
            let off = ref 0 in
            List.map
              (fun image ->
                let got = ref (Error "install did not answer") in
                Process_loader.install b.Tock_boards.Board.kernel
                  ~cap:b.Tock_boards.Board.ext_cap ~pm_cap:b.Tock_boards.Board.pm_cap
                  ~flash_base:(base + !off) ~tbf:image ~lookup
                  ~checker:Process_loader.accept_all_checker
                  ~on_done:(fun r -> got := r);
                off := !off + Bytes.length image;
                !got)
              images)
      in
      sync = async && sync = installed && List.for_all snd (fst sync))

let suite =
  [
    Alcotest.test_case "sync load" `Quick test_sync_load;
    Alcotest.test_case "sync load unknown app" `Quick test_sync_load_unknown_app;
    Alcotest.test_case "disabled flag" `Quick test_disabled_flag_not_started;
    Alcotest.test_case "async signed load" `Quick test_async_signed_load;
    Alcotest.test_case "wrong key rejected" `Quick test_wrong_key_rejected;
    Alcotest.test_case "sha-only policy" `Quick test_sha_policy;
    Alcotest.test_case "hmac policy" `Quick test_hmac_policy;
    Alcotest.test_case "dynamic install" `Quick test_dynamic_install;
    Alcotest.test_case "install rejects garbage" `Quick test_install_rejects_garbage;
    Alcotest.test_case "async loader timing" `Quick test_async_loader_timing;
    Alcotest.test_case "unknown TLV image loads" `Quick test_unknown_tlv_loads;
    Alcotest.test_case "flipped unknown TLV rejected" `Quick
      test_flipped_unknown_tlv_rejected;
    Alcotest.test_case "flash image is the stored slice" `Quick
      test_flash_image_is_stored_slice;
    loader_paths_prop;
  ]
