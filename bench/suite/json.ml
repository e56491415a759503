(* Just enough JSON for the suite: write result files, read them back
   for [compare], read BENCHMARK.json, and parse a Perfetto file in the
   smoke check. No JSON library is installed, and the inputs are all
   produced by this suite or are small hand-written files. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Integers print exactly; other numbers with all 17 significant digits,
   so a measured value reads back bit-identical. *)
let num_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let is_scalar = function Arr _ | Obj _ -> false | _ -> true

(* Objects put one member per line; arrays of scalars stay on one line,
   so result files diff well and per-rep value lists stay compact. *)
let to_string ?(pretty = true) v =
  let b = Buffer.create 4096 in
  let rec go ind v =
    let nl ind' =
      if pretty then begin
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make (2 * ind') ' ')
      end
    in
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s -> add_string b s
    | Arr l ->
        let inline = (not pretty) || List.for_all is_scalar l in
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b (if inline && pretty then ", " else ",");
            if not inline then nl (ind + 1);
            go (ind + 1) x)
          l;
        if (not inline) && l <> [] then nl ind;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj l ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            nl (ind + 1);
            add_string b k;
            Buffer.add_string b (if pretty then ": " else ":");
            go (ind + 1) x)
          l;
        nl ind;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\n' | '\r' | '\t' ->
          incr pos;
          skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
          | _ -> fail "bad escape");
          loop ()
      | c ->
          Buffer.add_char b c;
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            let k = parse_string () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec elems acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              elems (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          elems []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f when !pos > start -> Num f
        | _ -> fail "bad value"
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let write_file path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

(* ---- accessors: raise [Parse_error] on a shape mismatch ---- *)

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> raise (Parse_error ("not an object looking up " ^ k))

let to_num = function Num f -> f | _ -> raise (Parse_error "expected a number")
let to_int v = int_of_float (to_num v)
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Parse_error "expected an array")
let to_obj = function Obj l -> l | _ -> raise (Parse_error "expected an object")
