exception Access_violation of string

type access = Read_only | Write_only | Read_write

type field = { offset : int; width : int }

type reg = {
  r_name : string;
  r_offset : int;
  access : access;
  mutable value : int;
  on_read : (int -> int) option;
  on_write : (old:int -> int -> int) option;
}

type map = {
  m_name : string;
  base : int;
  by_name : (string, reg) Hashtbl.t;
  by_offset : (int, reg) Hashtbl.t;
}

let mask32 = 0xFFFFFFFF

let field ~offset ~width =
  if offset < 0 || width <= 0 || offset + width > 32 then
    invalid_arg "Mmio.field";
  { offset; width }

let reg ?(reset = 0) ?on_read ?on_write ~name ~offset access =
  if offset land 3 <> 0 then invalid_arg "Mmio.reg: unaligned offset";
  {
    r_name = name;
    r_offset = offset;
    access;
    value = reset land mask32;
    on_read;
    on_write;
  }

let map ~name ~base regs =
  let by_name = Hashtbl.create 16 and by_offset = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem by_name r.r_name then
        invalid_arg ("Mmio.map: duplicate register " ^ r.r_name);
      if Hashtbl.mem by_offset r.r_offset then
        invalid_arg ("Mmio.map: duplicate offset in " ^ name);
      Hashtbl.add by_name r.r_name r;
      Hashtbl.add by_offset r.r_offset r)
    regs;
  { m_name = name; base; by_name; by_offset }

let find t name =
  match Hashtbl.find_opt t.by_name name with
  | Some r -> r
  | None -> raise Not_found

let read_reg t r =
  (match r.access with
  | Write_only ->
      raise
        (Access_violation
           (Printf.sprintf "%s.%s is write-only" t.m_name r.r_name))
  | Read_only | Read_write -> ());
  match r.on_read with Some f -> f r.value land mask32 | None -> r.value

let write_reg t r v =
  (match r.access with
  | Read_only ->
      raise
        (Access_violation
           (Printf.sprintf "%s.%s is read-only" t.m_name r.r_name))
  | Write_only | Read_write -> ());
  let v = v land mask32 in
  let stored =
    match r.on_write with Some f -> f ~old:r.value v land mask32 | None -> v
  in
  r.value <- stored

let read t name = read_reg t (find t name)

let write t name v = write_reg t (find t name) v

let addr_reg t addr =
  let off = addr - t.base in
  if off < 0 || off land 3 <> 0 then
    raise (Access_violation (Printf.sprintf "%s: bad address" t.m_name));
  match Hashtbl.find_opt t.by_offset off with
  | Some r -> r
  | None ->
      raise
        (Access_violation
           (Printf.sprintf "%s: no register at +0x%x" t.m_name off))

let read_addr t addr = read_reg t (addr_reg t addr)

let write_addr t addr v = write_reg t (addr_reg t addr) v

let field_mask f = ((1 lsl f.width) - 1) lsl f.offset

let get t name f =
  let v = read t name in
  (v land field_mask f) lsr f.offset

let set t name f v =
  let r = find t name in
  (* Read-modify-write against the stored value, not the on_read view. *)
  let old = r.value in
  let cleared = old land lnot (field_mask f) land mask32 in
  let v = (v land ((1 lsl f.width) - 1)) lsl f.offset in
  write_reg t r (cleared lor v)

let is_set t name f = get t name f <> 0

let hw_set t name v = (find t name).value <- v land mask32

let hw_set_field t name f v =
  let r = find t name in
  let cleared = r.value land lnot (field_mask f) land mask32 in
  r.value <- cleared lor ((v land ((1 lsl f.width) - 1)) lsl f.offset)
