type tlv =
  | Main of { init_fn_offset : int; protected_size : int; minimum_ram_size : int }
  | Program of {
      init_fn_offset : int;
      protected_size : int;
      minimum_ram_size : int;
      binary_end_offset : int;
      app_version : int;
    }
  | Package_name of string
  | Kernel_version of { major : int; minor : int }
  | Permissions of (int * int) list
  | Storage_permissions of { write_id : int; read_ids : int list }

type credential =
  | Sha256_digest of bytes
  | Hmac_cred of { key_id : int; tag : bytes }
  | Schnorr_cred of { pubkey : bytes; signature : bytes }
  | Padding of int

type t = {
  version : int;
  flags : int;
  elements : tlv list;
  binary : bytes;
  footers : credential list;
  footer_space : int;
}

let flag_enabled = 1

let flag_sticky = 2

(* TLV type codes (header side matches real TBF; footer side local). *)
let tlv_main = 1
let tlv_package_name = 3
let tlv_permissions = 6
let tlv_storage_permissions = 7
let tlv_kernel_version = 8
let tlv_program = 9
let cred_padding = 0x7F
let cred_sha256 = 0x80
let cred_hmac = 0x81
let cred_schnorr = 0x82

let base_header_size = 16

let align4 n = (n + 3) land lnot 3

let tlv_payload_size = function
  | Main _ -> 12
  | Program _ -> 20
  | Package_name s -> align4 (String.length s)
  | Kernel_version _ -> 4
  | Permissions l -> 4 + (8 * List.length l)
  | Storage_permissions { read_ids; _ } -> 8 + (4 * List.length read_ids)

let tlv_size e = 4 + tlv_payload_size e

let header_size t =
  base_header_size + List.fold_left (fun acc e -> acc + tlv_size e) 0 t.elements

let binary_end t = header_size t + Bytes.length t.binary

let total_size t = binary_end t + t.footer_space

let cred_payload_size = function
  | Sha256_digest _ -> 32
  | Hmac_cred _ -> 36
  | Schnorr_cred _ -> 24
  | Padding n -> n

let cred_size c = 4 + cred_payload_size c

(* ---- byte-level helpers ---- *)

let put_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let put_u32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (i * 8)) land 0xff))
  done

let get_u16 b off =
  Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let get_u32 b off =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
  done;
  !v

(* ---- construction ---- *)

let make ?(flags = flag_enabled) ?(min_ram = 2048) ?permissions ?storage
    ?(footer_space = 128) ~name ~binary () =
  if footer_space land 3 <> 0 then invalid_arg "Tbf.make: footer_space must be 4-aligned";
  let app_version = 0 in
  let elements_no_program =
    [ Package_name name; Kernel_version { major = 2; minor = 0 } ]
    @ (match permissions with Some l -> [ Permissions l ] | None -> [])
    @
    match storage with
    | Some (write_id, read_ids) -> [ Storage_permissions { write_id; read_ids } ]
    | None -> []
  in
  (* Compute the header size with the Program element included to fix
     binary_end_offset. *)
  let program_stub =
    Program
      {
        init_fn_offset = 0;
        protected_size = 0;
        minimum_ram_size = min_ram;
        binary_end_offset = 0;
        app_version;
      }
  in
  let hsize =
    base_header_size
    + List.fold_left (fun acc e -> acc + tlv_size e) 0
        (program_stub :: elements_no_program)
  in
  let program =
    Program
      {
        init_fn_offset = hsize;
        protected_size = 0;
        minimum_ram_size = min_ram;
        binary_end_offset = hsize + Bytes.length binary;
        app_version;
      }
  in
  (* Pad the binary to a 4-byte boundary so footers are aligned and
     images pack back-to-back in flash. *)
  let padded =
    let len = Bytes.length binary in
    let b = Bytes.make (align4 len) '\x00' in
    Bytes.blit binary 0 b 0 len;
    b
  in
  let program =
    match program with
    | Program p -> Program { p with binary_end_offset = hsize + Bytes.length padded }
    | e -> e
  in
  {
    version = 2;
    flags;
    elements = program :: elements_no_program;
    binary = padded;
    footers = [];
    footer_space;
  }

(* ---- serialization ---- *)

let write_tlv buf off e =
  let tcode =
    match e with
    | Main _ -> tlv_main
    | Program _ -> tlv_program
    | Package_name _ -> tlv_package_name
    | Kernel_version _ -> tlv_kernel_version
    | Permissions _ -> tlv_permissions
    | Storage_permissions _ -> tlv_storage_permissions
  in
  put_u16 buf off tcode;
  put_u16 buf (off + 2) (tlv_payload_size e);
  let p = off + 4 in
  (match e with
  | Main { init_fn_offset; protected_size; minimum_ram_size } ->
      put_u32 buf p init_fn_offset;
      put_u32 buf (p + 4) protected_size;
      put_u32 buf (p + 8) minimum_ram_size
  | Program
      { init_fn_offset; protected_size; minimum_ram_size; binary_end_offset;
        app_version } ->
      put_u32 buf p init_fn_offset;
      put_u32 buf (p + 4) protected_size;
      put_u32 buf (p + 8) minimum_ram_size;
      put_u32 buf (p + 12) binary_end_offset;
      put_u32 buf (p + 16) app_version
  | Package_name s -> Bytes.blit_string s 0 buf p (String.length s)
  | Kernel_version { major; minor } ->
      put_u16 buf p major;
      put_u16 buf (p + 2) minor
  | Permissions l ->
      put_u32 buf p (List.length l);
      List.iteri
        (fun i (driver, mask) ->
          put_u32 buf (p + 4 + (i * 8)) driver;
          put_u32 buf (p + 8 + (i * 8)) mask)
        l
  | Storage_permissions { write_id; read_ids } ->
      put_u32 buf p write_id;
      put_u32 buf (p + 4) (List.length read_ids);
      List.iteri (fun i id -> put_u32 buf (p + 8 + (i * 4)) id) read_ids);
  off + tlv_size e

let write_cred buf off c =
  let tcode =
    match c with
    | Sha256_digest _ -> cred_sha256
    | Hmac_cred _ -> cred_hmac
    | Schnorr_cred _ -> cred_schnorr
    | Padding _ -> cred_padding
  in
  put_u16 buf off tcode;
  put_u16 buf (off + 2) (cred_payload_size c);
  let p = off + 4 in
  (match c with
  | Sha256_digest d -> Bytes.blit d 0 buf p 32
  | Hmac_cred { key_id; tag } ->
      put_u32 buf p key_id;
      Bytes.blit tag 0 buf (p + 4) 32
  | Schnorr_cred { pubkey; signature } ->
      Bytes.blit pubkey 0 buf p 8;
      Bytes.blit signature 0 buf (p + 8) 16
  | Padding _ -> ());
  off + cred_size c

let checksum_of buf ~off hsize =
  let x = ref 0 in
  let i = ref 0 in
  while !i + 4 <= hsize do
    (* Skip the checksum word itself at offset 12. *)
    if !i <> 12 then x := !x lxor get_u32 buf (off + !i);
    i := !i + 4
  done;
  !x land 0xFFFFFFFF

let serialize t =
  let hsize = header_size t in
  let tsize = total_size t in
  let buf = Bytes.make tsize '\x00' in
  put_u16 buf 0 t.version;
  put_u16 buf 2 hsize;
  put_u32 buf 4 tsize;
  put_u32 buf 8 t.flags;
  let off = ref base_header_size in
  List.iter (fun e -> off := write_tlv buf !off e) t.elements;
  assert (!off = hsize);
  put_u32 buf 12 (checksum_of buf ~off:0 hsize);
  Bytes.blit t.binary 0 buf hsize (Bytes.length t.binary);
  (* Footers: real credentials, then one padding TLV for the rest. *)
  let foff = ref (binary_end t) in
  let creds = List.filter (function Padding _ -> false | _ -> true) t.footers in
  List.iter (fun c -> foff := write_cred buf !foff c) creds;
  let remaining = tsize - !foff in
  if remaining < 0 then invalid_arg "Tbf.serialize: footers overflow reserve";
  if remaining > 0 then begin
    if remaining < 4 then invalid_arg "Tbf.serialize: footer alignment";
    ignore (write_cred buf !foff (Padding (remaining - 4)))
  end;
  buf

let add_credential t c =
  let used =
    List.fold_left (fun acc c -> acc + cred_size c) 0
      (List.filter (function Padding _ -> false | _ -> true) t.footers)
  in
  if used + cred_size c > t.footer_space then
    invalid_arg "Tbf: credential overflows footer reserve";
  { t with footers = t.footers @ [ c ] }

(* The bytes a credential covers: the header and binary as [serialize]
   lays them out. *)
let integrity t = Bytes.sub (serialize t) 0 (binary_end t)

let add_sha256 t =
  add_credential t (Sha256_digest (Tock_crypto.Sha256.digest_bytes (integrity t)))

let add_hmac t ~key_id ~key =
  add_credential t
    (Hmac_cred { key_id; tag = Tock_crypto.Hmac.mac_bytes ~key (integrity t) })

let add_schnorr t ~sk ~rng =
  let signature = Tock_crypto.Schnorr.sign sk rng (integrity t) in
  let pk_y =
    Tock_crypto.Modmath.pow ~m:Tock_crypto.Modmath.p61
      Tock_crypto.Schnorr.generator sk.Tock_crypto.Schnorr.x
  in
  add_credential t
    (Schnorr_cred
       {
         pubkey = Tock_crypto.Schnorr.public_key_to_bytes { y = pk_y };
         signature = Tock_crypto.Schnorr.signature_to_bytes signature;
       })

(* ---- parsing ---- *)

type parse_error =
  | Truncated
  | Bad_version of int
  | Bad_checksum
  | Bad_tlv of string
  | Missing_program

let pp_error fmt = function
  | Truncated -> Format.fprintf fmt "truncated TBF"
  | Bad_version v -> Format.fprintf fmt "unsupported TBF version %d" v
  | Bad_checksum -> Format.fprintf fmt "header checksum mismatch"
  | Bad_tlv s -> Format.fprintf fmt "malformed TLV: %s" s
  | Missing_program -> Format.fprintf fmt "no Main/Program element"

let ( let* ) = Result.bind

type image = { tbf : t; off : int; stored : bytes; integrity_end : int }

let parse buf ~off =
  let len = Bytes.length buf in
  if off + base_header_size > len then Error Truncated
  else begin
    let version = get_u16 buf off in
    if version <> 2 then Error (Bad_version version)
    else
      let hsize = get_u16 buf (off + 2) in
      let tsize = get_u32 buf (off + 4) in
      let flags = get_u32 buf (off + 8) in
      if tsize > len - off || hsize > tsize || hsize < base_header_size
      then Error Truncated
      else if checksum_of buf ~off hsize <> get_u32 buf (off + 12) then
        Error Bad_checksum
      else begin
        (* The image as stored: what credentials cover and what a loaded
           process's flash holds. *)
        let sub = Bytes.sub buf off tsize in
        (* Header TLVs *)
        let rec tlvs acc off =
          if off = hsize then Ok (List.rev acc)
          else if off + 4 > hsize then Error (Bad_tlv "runs past header")
          else
            let tcode = get_u16 sub off and plen = get_u16 sub (off + 2) in
            let pend = off + 4 + align4 plen in
            if pend > hsize then Error (Bad_tlv "payload past header")
            else
              let p = off + 4 in
              let elem =
                if tcode = tlv_main then
                  if plen <> 12 then Error (Bad_tlv "main length")
                  else
                    Ok
                      (Some
                         (Main
                            {
                              init_fn_offset = get_u32 sub p;
                              protected_size = get_u32 sub (p + 4);
                              minimum_ram_size = get_u32 sub (p + 8);
                            }))
                else if tcode = tlv_program then
                  if plen <> 20 then Error (Bad_tlv "program length")
                  else
                    Ok
                      (Some
                         (Program
                            {
                              init_fn_offset = get_u32 sub p;
                              protected_size = get_u32 sub (p + 4);
                              minimum_ram_size = get_u32 sub (p + 8);
                              binary_end_offset = get_u32 sub (p + 12);
                              app_version = get_u32 sub (p + 16);
                            }))
                else if tcode = tlv_package_name then
                  (* The stored length is unpadded only if the writer did
                     so; we trim trailing NULs. *)
                  let raw = Bytes.sub_string sub p plen in
                  let trimmed =
                    match String.index_opt raw '\x00' with
                    | Some i -> String.sub raw 0 i
                    | None -> raw
                  in
                  Ok (Some (Package_name trimmed))
                else if tcode = tlv_kernel_version then
                  if plen <> 4 then Error (Bad_tlv "kernel version length")
                  else
                    Ok
                      (Some
                         (Kernel_version
                            { major = get_u16 sub p; minor = get_u16 sub (p + 2) }))
                else if tcode = tlv_storage_permissions then begin
                  let count = get_u32 sub (p + 4) in
                  if plen <> 8 + (4 * count) then
                    Error (Bad_tlv "storage permissions length")
                  else
                    Ok
                      (Some
                         (Storage_permissions
                            {
                              write_id = get_u32 sub p;
                              read_ids =
                                List.init count (fun i ->
                                    get_u32 sub (p + 8 + (i * 4)));
                            }))
                end
                else if tcode = tlv_permissions then begin
                  let count = get_u32 sub p in
                  if plen <> 4 + (8 * count) then Error (Bad_tlv "permissions length")
                  else
                    Ok
                      (Some
                         (Permissions
                            (List.init count (fun i ->
                                 ( get_u32 sub (p + 4 + (i * 8)),
                                   get_u32 sub (p + 8 + (i * 8)) )))))
                end
                else Ok None (* unknown TLV: skip, forward compatible *)
              in
              let* elem = elem in
              let acc = match elem with Some e -> e :: acc | None -> acc in
              tlvs acc pend
        in
        let* elements = tlvs [] base_header_size in
        let binary_end =
          List.find_map
            (function
              | Program { binary_end_offset; _ } -> Some binary_end_offset
              | Main _ -> Some tsize
              | _ -> None)
            elements
        in
        match binary_end with
        | None -> Error Missing_program
        | Some bend ->
            if bend < hsize || bend > tsize then Error (Bad_tlv "binary end")
            else begin
              let binary = Bytes.sub sub hsize (bend - hsize) in
              (* Footers *)
              let rec creds acc off =
                if off >= tsize then Ok (List.rev acc)
                else if off + 4 > tsize then Error (Bad_tlv "footer header")
                else
                  let tcode = get_u16 sub off and plen = get_u16 sub (off + 2) in
                  let pend = off + 4 + align4 plen in
                  if pend > tsize then Error (Bad_tlv "footer payload")
                  else
                    let p = off + 4 in
                    let c =
                      if tcode = cred_sha256 && plen = 32 then
                        Some (Sha256_digest (Bytes.sub sub p 32))
                      else if tcode = cred_hmac && plen = 36 then
                        Some
                          (Hmac_cred
                             { key_id = get_u32 sub p; tag = Bytes.sub sub (p + 4) 32 })
                      else if tcode = cred_schnorr && plen = 24 then
                        Some
                          (Schnorr_cred
                             {
                               pubkey = Bytes.sub sub p 8;
                               signature = Bytes.sub sub (p + 8) 16;
                             })
                      else if tcode = cred_padding then Some (Padding plen)
                      else None
                    in
                    let acc = match c with Some c -> c :: acc | None -> acc in
                    creds acc pend
              in
              let* footers = creds [] bend in
              let tbf =
                { version; flags; elements; binary; footers; footer_space = tsize - bend }
              in
              Ok { tbf; off; stored = sub; integrity_end = bend }
            end
      end
  end

let parse_all buf =
  let len = Bytes.length buf in
  let rec go acc off =
    if off + 4 > len then (List.rev acc, None)
    else
      let v = get_u16 buf off in
      if v = 0xFFFF || v = 0 then (List.rev acc, None)
      else
        match parse buf ~off with
        | Ok image -> go (image :: acc) (off + align4 (Bytes.length image.stored))
        | Error e -> (List.rev acc, Some e)
  in
  go [] 0

(* ---- accessors ---- *)

let package_name t =
  List.find_map (function Package_name s -> Some s | _ -> None) t.elements

let minimum_ram t =
  match
    List.find_map
      (function
        | Program { minimum_ram_size; _ } | Main { minimum_ram_size; _ } ->
            Some minimum_ram_size
        | _ -> None)
      t.elements
  with
  | Some n -> n
  | None -> 0

let enabled t = t.flags land flag_enabled <> 0

let permissions t =
  List.find_map (function Permissions l -> Some l | _ -> None) t.elements

let storage_permissions t =
  List.find_map
    (function
      | Storage_permissions { write_id; read_ids } -> Some (write_id, read_ids)
      | _ -> None)
    t.elements
