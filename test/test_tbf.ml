(* Tock Binary Format: serialization roundtrips, checksum integrity,
   credentials, and multi-image flash walking. *)

open! Helpers
open Tock_tbf

let gen_name =
  QCheck2.Gen.(map (fun s -> "app-" ^ s) (string_size ~gen:(char_range 'a' 'z') (1 -- 12)))

let gen_binary = QCheck2.Gen.(map Bytes.of_string (string_size (0 -- 200)))

let roundtrip_prop =
  qcheck "tbf: serialize/parse roundtrip preserves the interesting fields"
    QCheck2.Gen.(triple gen_name gen_binary (int_range 256 16384))
    (fun (name, binary, min_ram) ->
      let t =
        Tbf.make ~name ~binary ~min_ram
          ~permissions:[ (0x1, 0b11); (0x40003, 0b10) ]
          ()
      in
      let raw = Tbf.serialize t in
      match Tbf.parse raw ~off:0 with
      | Error _ -> false
      | Ok { Tbf.tbf = t'; stored; _ } ->
          Bytes.equal stored raw
          && Bytes.equal (Tbf.serialize t') raw
          && Tbf.package_name t' = Some name
          && Tbf.minimum_ram t' = min_ram
          && Tbf.permissions t' = Some [ (0x1, 0b11); (0x40003, 0b10) ]
          && Bytes.length t'.Tbf.binary >= Bytes.length binary
          && Bytes.sub t'.Tbf.binary 0 (Bytes.length binary) = binary)

let test_checksum_detects_corruption () =
  let t = Tbf.make ~name:"app" ~binary:(Bytes.of_string "code") () in
  let raw = Tbf.serialize t in
  (* Flip a bit inside the header (the flags word at offset 8). *)
  Bytes.set raw 8 (Char.chr (Char.code (Bytes.get raw 8) lxor 0x04));
  match Tbf.parse raw ~off:0 with
  | Error Tbf.Bad_checksum -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Tbf.pp_error e
  | Ok _ -> Alcotest.fail "corruption not detected"

let test_version_gate () =
  let raw = Bytes.make 32 '\x00' in
  Bytes.set raw 0 '\x03';
  match Tbf.parse raw ~off:0 with
  | Error (Tbf.Bad_version 3) -> ()
  | _ -> Alcotest.fail "expected Bad_version"

let test_truncated () =
  let t = Tbf.make ~name:"app" ~binary:(Bytes.of_string "code") () in
  let raw = Tbf.serialize t in
  match Tbf.parse (Bytes.sub raw 0 20) ~off:0 with
  | Error Tbf.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

let test_parse_all () =
  let mk name = Tbf.serialize (Tbf.make ~name ~binary:(Bytes.of_string name) ()) in
  let flash =
    Bytes.concat Bytes.empty
      [ mk "one"; mk "two"; mk "three"; Bytes.make 64 '\xff' ]
  in
  let apps, err = Tbf.parse_all flash in
  Alcotest.(check bool) "no error" true (err = None);
  Alcotest.(check (list (option string))) "names"
    [ Some "one"; Some "two"; Some "three" ]
    (List.map (fun (i : Tbf.image) -> Tbf.package_name i.Tbf.tbf) apps);
  (* offsets are increasing and aligned *)
  List.iter (fun (i : Tbf.image) -> Alcotest.(check int) "aligned" 0 (i.Tbf.off mod 4)) apps

let test_parse_all_stops_at_garbage () =
  let mk name = Tbf.serialize (Tbf.make ~name ~binary:Bytes.empty ()) in
  let bad = Bytes.make 40 '\x02' in (* version ok-ish, then garbage *)
  let flash = Bytes.concat Bytes.empty [ mk "good"; bad ] in
  let apps, err = Tbf.parse_all flash in
  Alcotest.(check int) "one app" 1 (List.length apps);
  Alcotest.(check bool) "error reported" true (err <> None)

let test_credentials () =
  let rng = Tock_crypto.Prng.create ~seed:3L in
  let sk, pk = Tock_crypto.Schnorr.keypair rng in
  let t = Tbf.make ~name:"signed" ~binary:(Bytes.of_string "codecode") () in
  let t = Tbf.add_sha256 t in
  let t = Tbf.add_hmac t ~key_id:1 ~key:(Bytes.of_string "hmac-key") in
  let t = Tbf.add_schnorr t ~sk ~rng in
  let raw = Tbf.serialize t in
  (* Parse back and verify every credential against the integrity region
     parse reports. *)
  match Tbf.parse raw ~off:0 with
  | Error e -> Alcotest.failf "parse: %a" Tbf.pp_error e
  | Ok { Tbf.tbf = t'; stored; integrity_end; _ } ->
      let region = Bytes.sub stored 0 integrity_end in
      let seen_sha = ref false and seen_hmac = ref false and seen_sig = ref false in
      List.iter
        (function
          | Tbf.Sha256_digest d ->
              seen_sha := true;
              Alcotest.(check string) "sha matches"
                (hex (Tock_crypto.Sha256.digest_bytes region))
                (hex d)
          | Tbf.Hmac_cred { key_id; tag } ->
              seen_hmac := true;
              Alcotest.(check int) "key id" 1 key_id;
              Alcotest.(check bool) "hmac verifies" true
                (Tock_crypto.Hmac.verify ~key:(Bytes.of_string "hmac-key")
                   ~msg:region ~tag)
          | Tbf.Schnorr_cred { pubkey; signature } ->
              seen_sig := true;
              Alcotest.(check string) "same pubkey"
                (hex (Tock_crypto.Schnorr.public_key_to_bytes pk))
                (hex pubkey);
              (match Tock_crypto.Schnorr.signature_of_bytes signature with
              | Some s ->
                  Alcotest.(check bool) "signature verifies" true
                    (Tock_crypto.Schnorr.verify pk region s)
              | None -> Alcotest.fail "bad signature encoding")
          | Tbf.Padding _ -> ())
        t'.Tbf.footers;
      Alcotest.(check (triple bool bool bool)) "all present" (true, true, true)
        (!seen_sha, !seen_hmac, !seen_sig)

let test_credential_invalidated_by_tamper () =
  let t = Tbf.add_sha256 (Tbf.make ~name:"x" ~binary:(Bytes.of_string "data") ()) in
  let raw = Tbf.serialize t in
  (* Tamper with a binary byte (not the header, so checksum still ok). *)
  let hsize = Char.code (Bytes.get raw 2) lor (Char.code (Bytes.get raw 3) lsl 8) in
  Bytes.set raw hsize 'X';
  match Tbf.parse raw ~off:0 with
  | Ok { Tbf.tbf = t'; stored; integrity_end; _ } ->
      let region = Bytes.sub stored 0 integrity_end in
      List.iter
        (function
          | Tbf.Sha256_digest d ->
              Alcotest.(check bool) "digest no longer matches" false
                (Bytes.equal d (Tock_crypto.Sha256.digest_bytes region))
          | _ -> ())
        t'.Tbf.footers
  | Error e -> Alcotest.failf "parse: %a" Tbf.pp_error e

let test_footer_reserve_overflow () =
  let t = Tbf.make ~footer_space:16 ~name:"tiny" ~binary:Bytes.empty () in
  Alcotest.(check bool) "overflow raises" true
    (try ignore (Tbf.add_sha256 t); false with Invalid_argument _ -> true)

let test_flags () =
  let t = Tbf.make ~flags:(Tbf.flag_enabled lor Tbf.flag_sticky) ~name:"f"
      ~binary:Bytes.empty () in
  Alcotest.(check bool) "enabled" true (Tbf.enabled t);
  let raw = Tbf.serialize t in
  match Tbf.parse raw ~off:0 with
  | Ok { Tbf.tbf = t'; _ } ->
      Alcotest.(check int) "flags preserved"
        (Tbf.flag_enabled lor Tbf.flag_sticky) t'.Tbf.flags
  | Error e -> Alcotest.failf "parse: %a" Tbf.pp_error e

let suite =
  [
    roundtrip_prop;
    Alcotest.test_case "checksum detects corruption" `Quick test_checksum_detects_corruption;
    Alcotest.test_case "version gate" `Quick test_version_gate;
    Alcotest.test_case "truncated" `Quick test_truncated;
    Alcotest.test_case "parse_all walks images" `Quick test_parse_all;
    Alcotest.test_case "parse_all stops at garbage" `Quick test_parse_all_stops_at_garbage;
    Alcotest.test_case "credentials roundtrip+verify" `Quick test_credentials;
    Alcotest.test_case "tamper invalidates digest" `Quick test_credential_invalidated_by_tamper;
    Alcotest.test_case "footer reserve overflow" `Quick test_footer_reserve_overflow;
    Alcotest.test_case "flags" `Quick test_flags;
  ]
