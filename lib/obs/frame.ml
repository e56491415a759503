(* Frame: an 8-byte magic; a section count; per section its
   length-prefixed name, payload length and payload MD5; then the
   payloads back to back, all integers 64-bit LE. [decode] checks all
   of it before any payload is parsed. Payload decoders fail by raising
   [Corrupt] through [fail]; [parse] and [read] are the only places
   that catch it, and they turn it into an [Error] naming the section. *)

let add_int b v = Buffer.add_int64_le b (Int64.of_int v)

let add_int64 = Buffer.add_int64_le

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_list b f l =
  add_int b (List.length l);
  List.iter f l

(* Each section writes straight into [buf]; the payloads are then
   blitted once into the output and digested there. *)
let encode ?(buf = Buffer.create 4096) magic sections =
  if String.length magic <> 8 then invalid_arg "Frame.encode: magic is not 8 bytes";
  Buffer.clear buf;
  let ends = Array.make (List.length sections) 0 in
  List.iteri (fun i (_, write) -> write buf; ends.(i) <- Buffer.length buf) sections;
  let hdr = List.fold_left (fun n (name, _) -> n + 32 + String.length name) 16 sections in
  let out = Bytes.create (hdr + Buffer.length buf) in
  let set at v = Bytes.set_int64_le out at (Int64.of_int v) in
  Bytes.blit_string magic 0 out 0 8;
  set 8 (Array.length ends);
  Buffer.blit buf 0 out hdr (Buffer.length buf);
  let at = ref 16 in
  List.iteri
    (fun i (name, _) ->
      let start = if i = 0 then 0 else ends.(i - 1) and nl = String.length name in
      set !at nl;
      Bytes.blit_string name 0 out (!at + 8) nl;
      set (!at + 8 + nl) (ends.(i) - start);
      let md5 = Digest.subbytes out (hdr + start) (ends.(i) - start) in
      Bytes.blit_string md5 0 out (!at + 16 + nl) 16;
      at := !at + 32 + nl)
    sections;
  Bytes.unsafe_to_string out

exception Corrupt of string

let fail fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* Diagnostics count bytes from [base], the start of the section. *)
type reader = { src : string; base : int; mutable pos : int; stop : int }

let raw r n =
  if n < 0 || n > r.stop - r.pos then fail "bad length %d at byte %d" n (r.pos - r.base);
  r.pos <- r.pos + n;
  String.sub r.src (r.pos - n) n

let int64 r =
  if r.stop - r.pos < 8 then fail "truncated at byte %d" (r.pos - r.base);
  r.pos <- r.pos + 8;
  String.get_int64_le r.src (r.pos - 8)

let int r = Int64.to_int (int64 r)

let string r = raw r (int r)

let rest r = raw r (r.stop - r.pos)

let list r ~min f =
  let n = int r in
  if n < 0 || n > (r.stop - r.pos) / min then
    fail "count %d at byte %d: no room for records of %d bytes" n
      (r.pos - r.base - 8) min;
  List.init n (fun _ -> f r)

let run r f =
  let v = f r in
  if r.pos <> r.stop then fail "%d trailing bytes" (r.stop - r.pos);
  v

let parse s f =
  try Ok (run { src = s; base = 0; pos = 0; stop = String.length s } f)
  with Corrupt m -> Error m

type t = {
  f_src : string;
  f_secs : (string * int * int * string) list; (* name, offset, length, MD5 *)
}

(* The table must name known sections, each once and in order, and tile
   the bytes after it exactly; then every payload must match its
   digest. *)
let decode ~magic ~sections s =
  let r = { src = s; base = 8; pos = 8; stop = String.length s } in
  let rec expect name = function
    | [] -> fail "section %S is unknown, repeated or out of order" name
    | known :: tl -> if String.equal known name then tl else expect name tl
  in
  if String.length s < 8 || not (String.equal (String.sub s 0 8) magic) then
    Error (Printf.sprintf "frame header: not a %s frame (bad magic)" magic)
  else
    match
      let entries =
        list r ~min:32 (fun r ->
            let name = string r in
            let len = int r in
            (name, len, raw r 16))
      in
      ignore (List.fold_left (fun known (n, _, _) -> expect n known) sections entries);
      let stop, secs =
        List.fold_left_map
          (fun off (name, len, md5) ->
            if len < 0 || len > r.stop - off then
              fail "section %S: length %d exceeds the %d bytes left" name len
                (r.stop - off);
            (off + len, (name, off, len, md5)))
          r.pos entries
      in
      if stop <> r.stop then
        fail "sections hold %d bytes, %d present" (stop - r.pos) (r.stop - r.pos);
      secs
    with
    | exception Corrupt m -> Error ("section table: " ^ m)
    | secs -> (
        let damaged (_, off, len, md5) = Digest.substring s off len <> md5 in
        match List.find_opt damaged secs with
        | Some (name, _, _, _) -> Error (Printf.sprintf "section %S: MD5 mismatch" name)
        | None -> Ok { f_src = s; f_secs = secs })

let find t name = List.find_opt (fun (n, _, _, _) -> String.equal n name) t.f_secs

let mem t name = Option.is_some (find t name)

let read t name f =
  match find t name with
  | None -> Error (Printf.sprintf "section %S: missing" name)
  | Some (_, off, len, _) -> (
      try Ok (run { src = t.f_src; base = off; pos = off; stop = off + len } f)
      with Corrupt m -> Error (Printf.sprintf "section %S: %s" name m))
