(* Shared helpers for the test suite. *)

let qcheck ?count ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?count ?print ~name gen prop)

let hex = Tock_crypto.Sha256.hex

let make_board ?config ?(chip = `Sam4l) ?seed () =
  let sim = Tock_hw.Sim.create ?seed () in
  let chip =
    match chip with
    | `Sam4l -> Tock_hw.Chip.sam4l_like sim
    | `Rv32 -> Tock_hw.Chip.rv32_like sim
  in
  Tock_boards.Board.build ?config chip

let add_app_exn board ~name main =
  match Tock_boards.Board.add_app board ~name main with
  | Ok p -> p
  | Error e -> Alcotest.failf "add_app %s: %s" name (Tock.Error.to_string e)

let run_done ?max_cycles board =
  Tock_boards.Board.run_to_completion board ?max_cycles ()

(* A named packed-metrics image, as a frame section stores it. *)
let packed_image p =
  let b = Buffer.create 1024 in
  Tock_obs.Metrics.packed_to_buffer b p;
  Buffer.contents b

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains ~msg haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: %S not found in %S" msg needle haystack

(* ---- mini JSON reader (subset: enough to parse the exporters) ---- *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* the exporters escape only control bytes this way *)
              if !pos + 5 > n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c when c < 0x80 -> c
                | _ -> fail ("bad \\u escape " ^ hex)
              in
              Buffer.add_char b (Char.chr code);
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape %c" c));
          advance ();
          go ()
      | '\255' -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (
          advance ();
          J_obj [])
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((key, v) :: acc)
            | '}' ->
                advance ();
                J_obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (
          advance ();
          J_arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elems (v :: acc)
            | ']' ->
                advance ();
                J_arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elems []
    | '"' -> J_str (parse_string ())
    | 't' ->
        pos := !pos + 4;
        J_bool true
    | 'f' ->
        pos := !pos + 5;
        J_bool false
    | 'n' ->
        pos := !pos + 4;
        J_null
    | c when c = '-' || (c >= '0' && c <= '9') ->
        let start = !pos in
        let num_char c =
          (c >= '0' && c <= '9')
          || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while num_char (peek ()) do
          advance ()
        done;
        J_num (float_of_string (String.sub s start (!pos - start)))
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_get key = function
  | J_obj kvs -> (
      match List.assoc_opt key kvs with
      | Some v -> v
      | None -> Alcotest.failf "json: missing key %s" key)
  | _ -> Alcotest.failf "json: not an object (looking for %s)" key

let as_num = function
  | J_num f -> f
  | _ -> Alcotest.fail "json: expected number"

let as_str = function
  | J_str s -> s
  | _ -> Alcotest.fail "json: expected string"

let as_arr = function
  | J_arr l -> l
  | _ -> Alcotest.fail "json: expected array"
