type yield_kind =
  | Yield_no_wait
  | Yield_wait
  | Yield_wait_for of { driver : int; subscribe_num : int }

type call =
  | Yield of yield_kind
  | Subscribe of {
      driver : int;
      subscribe_num : int;
      upcall_fn : int;
      appdata : int;
    }
  | Command of { driver : int; command_num : int; arg1 : int; arg2 : int }
  | Allow_rw of { driver : int; allow_num : int; addr : int; len : int }
  | Allow_ro of { driver : int; allow_num : int; addr : int; len : int }
  | Memop of { op : int; arg : int }
  | Exit of { variant : int; code : int }
  | Command_blocking of {
      driver : int;
      command_num : int;
      arg1 : int;
      arg2 : int;
      subscribe_num : int;
    }

type ret =
  | Failure of Error.t
  | Failure_u32 of Error.t * int
  | Failure_u32_u32 of Error.t * int * int
  | Success
  | Success_u32 of int
  | Success_u32_u32 of int * int
  | Success_u32_u32_u32 of int * int * int

let registers = 5

(* Class numbers per TRD 104; 0x80 is the local blocking-command
   extension. *)
let class_yield = 0
let class_subscribe = 1
let class_command = 2
let class_allow_rw = 3
let class_allow_ro = 4
let class_memop = 5
let class_exit = 6
let class_command_blocking = 0x80

let memop_brk = 0
let memop_sbrk = 1
let memop_flash_start = 2
let memop_flash_end = 3
let memop_ram_start = 4
let memop_ram_end = 5

(* [Command_blocking] carries its completion slot in the top half of
   r3: both halves are 16-bit fields, so this is the one place that
   packs or unpacks them. *)
let blocking_field_max = 0xFFFF

let pack_blocking ~arg2 ~subscribe_num =
  if
    arg2 < 0 || arg2 > blocking_field_max || subscribe_num < 0
    || subscribe_num > blocking_field_max
  then invalid_arg "Syscall.pack_blocking: field outside 0-0xFFFF";
  arg2 lor (subscribe_num lsl 16)

let blocking_arg2 r3 = r3 land blocking_field_max

let blocking_subscribe_num r3 = (r3 lsr 16) land blocking_field_max

let encode_call c =
  match c with
  | Yield Yield_no_wait -> [| class_yield; 0; 0; 0; 0 |]
  | Yield Yield_wait -> [| class_yield; 1; 0; 0; 0 |]
  | Yield (Yield_wait_for { driver; subscribe_num }) ->
      [| class_yield; 2; driver; subscribe_num; 0 |]
  | Subscribe { driver; subscribe_num; upcall_fn; appdata } ->
      [| class_subscribe; driver; subscribe_num; upcall_fn; appdata |]
  | Command { driver; command_num; arg1; arg2 } ->
      [| class_command; driver; command_num; arg1; arg2 |]
  | Allow_rw { driver; allow_num; addr; len } ->
      [| class_allow_rw; driver; allow_num; addr; len |]
  | Allow_ro { driver; allow_num; addr; len } ->
      [| class_allow_ro; driver; allow_num; addr; len |]
  | Memop { op; arg } -> [| class_memop; op; arg; 0; 0 |]
  | Exit { variant; code } -> [| class_exit; variant; code; 0; 0 |]
  | Command_blocking { driver; command_num; arg1; arg2; subscribe_num } ->
      [| class_command_blocking; driver; command_num; arg1;
         pack_blocking ~arg2 ~subscribe_num |]

let classes = 8

let class_index = function
  | (0 | 1 | 2 | 3 | 4 | 5 | 6) as c -> c
  | 0x80 (* class_command_blocking *) -> 7
  | _ -> -1

let class_of_index i = if i = 7 then class_command_blocking else i

let verdict_inval = -1

let verdict_nosupport = -2

let verdict regs =
  (* Literal-pattern matches (not if-chains over the named constants) so
     the compiler emits jump tables: the kernel runs this on every trap.
     The length guard makes the unsafe reads in range. *)
  if Array.length regs <> registers then verdict_inval
  else
    match Array.unsafe_get regs 0 with
    | 0 (* class_yield *) -> (
        match Array.unsafe_get regs 1 with 0 | 1 | 2 -> 0 | _ -> verdict_inval)
    | c ->
        let i = class_index c in
        if i < 0 then verdict_nosupport else i

let decode_call regs =
  let i = verdict regs in
  if i = verdict_inval then Error Error.INVAL
  else if i = verdict_nosupport then Error Error.NOSUPPORT
  else
    let r0 = Array.unsafe_get regs 1 and r1 = Array.unsafe_get regs 2 in
    let r2 = Array.unsafe_get regs 3 and r3 = Array.unsafe_get regs 4 in
    Ok
      (match i with
      | 0 -> (
          match r0 with
          | 0 -> Yield Yield_no_wait
          | 1 -> Yield Yield_wait
          | _ -> Yield (Yield_wait_for { driver = r1; subscribe_num = r2 }))
      | 1 -> Subscribe { driver = r0; subscribe_num = r1; upcall_fn = r2; appdata = r3 }
      | 2 -> Command { driver = r0; command_num = r1; arg1 = r2; arg2 = r3 }
      | 3 -> Allow_rw { driver = r0; allow_num = r1; addr = r2; len = r3 }
      | 4 -> Allow_ro { driver = r0; allow_num = r1; addr = r2; len = r3 }
      | 5 -> Memop { op = r0; arg = r1 }
      | 6 -> Exit { variant = r0; code = r1 }
      | _ ->
          Command_blocking
            {
              driver = r0;
              command_num = r1;
              arg1 = r2;
              arg2 = blocking_arg2 r3;
              subscribe_num = blocking_subscribe_num r3;
            })

(* Return variant tags, TRD 104. *)
let tag_failure = 0
let tag_failure_u32 = 1
let tag_failure_u32_u32 = 2
let tag_success = 128
let tag_success_u32 = 129
let tag_success_u32_u32 = 130
let tag_success_u32_u32_u32 = 132

(* The in-place writers are the kernel's per-syscall return path: one
   4-word array per process is reused instead of allocating per call.
   Safe because return registers are decoded by the process before its
   next syscall can encode over them. *)
let[@inline] set regs a b c d =
  if Array.length regs <> 4 then invalid_arg "Syscall: want 4 return registers";
  Array.unsafe_set regs 0 a;
  Array.unsafe_set regs 1 b;
  Array.unsafe_set regs 2 c;
  Array.unsafe_set regs 3 d

let set_failure regs e = set regs tag_failure (Error.to_int e) 0 0

let set_failure_u32_u32 regs e a b =
  set regs tag_failure_u32_u32 (Error.to_int e) a b

let set_success regs = set regs tag_success 0 0 0

let set_success_u32 regs a = set regs tag_success_u32 a 0 0

let set_success_u32_u32 regs a b = set regs tag_success_u32_u32 a b 0

let set_success_u32_u32_u32 regs a b c = set regs tag_success_u32_u32_u32 a b c

let encode_ret_into ret regs =
  match ret with
  | Failure e -> set_failure regs e
  | Failure_u32 (e, a) -> set regs tag_failure_u32 (Error.to_int e) a 0
  | Failure_u32_u32 (e, a, b) -> set_failure_u32_u32 regs e a b
  | Success -> set_success regs
  | Success_u32 a -> set_success_u32 regs a
  | Success_u32_u32 (a, b) -> set_success_u32_u32 regs a b
  | Success_u32_u32_u32 (a, b, c) -> set_success_u32_u32_u32 regs a b c

let encode_ret ret =
  let regs = Array.make 4 0 in
  encode_ret_into ret regs;
  regs

let decode_ret_exn regs =
  if Array.length regs <> 4 then invalid_arg "bad register count";
  let err i =
    match Error.of_int i with
    | Some e -> e
    | None -> invalid_arg "bad error code"
  in
  let r1 = Array.unsafe_get regs 1
  and r2 = Array.unsafe_get regs 2
  and r3 = Array.unsafe_get regs 3 in
  match Array.unsafe_get regs 0 with
  | 0 (* tag_failure *) -> Failure (err r1)
  | 1 (* tag_failure_u32 *) -> Failure_u32 (err r1, r2)
  | 2 (* tag_failure_u32_u32 *) -> Failure_u32_u32 (err r1, r2, r3)
  | 128 (* tag_success *) -> Success
  | 129 (* tag_success_u32 *) -> Success_u32 r1
  | 130 (* tag_success_u32_u32 *) -> Success_u32_u32 (r1, r2)
  | 132 (* tag_success_u32_u32_u32 *) -> Success_u32_u32_u32 (r1, r2, r3)
  | _ -> invalid_arg "unknown return variant"

let decode_ret regs =
  match decode_ret_exn regs with
  | r -> Ok r
  | exception Invalid_argument m -> Error m

let pp_call fmt = function
  | Yield Yield_no_wait -> Format.fprintf fmt "yield-no-wait"
  | Yield Yield_wait -> Format.fprintf fmt "yield-wait"
  | Yield (Yield_wait_for { driver; subscribe_num }) ->
      Format.fprintf fmt "yield-wait-for(%#x,%d)" driver subscribe_num
  | Subscribe { driver; subscribe_num; upcall_fn; _ } ->
      Format.fprintf fmt "subscribe(%#x,%d,fn=%d)" driver subscribe_num upcall_fn
  | Command { driver; command_num; arg1; arg2 } ->
      Format.fprintf fmt "command(%#x,%d,%d,%d)" driver command_num arg1 arg2
  | Allow_rw { driver; allow_num; addr; len } ->
      Format.fprintf fmt "allow-rw(%#x,%d,%#x,%d)" driver allow_num addr len
  | Allow_ro { driver; allow_num; addr; len } ->
      Format.fprintf fmt "allow-ro(%#x,%d,%#x,%d)" driver allow_num addr len
  | Memop { op; arg } -> Format.fprintf fmt "memop(%d,%d)" op arg
  | Exit { variant; code } -> Format.fprintf fmt "exit(%d,%d)" variant code
  | Command_blocking { driver; command_num; subscribe_num; _ } ->
      Format.fprintf fmt "command-blocking(%#x,%d,sub=%d)" driver command_num
        subscribe_num

let pp_ret fmt = function
  | Failure e -> Format.fprintf fmt "Failure(%a)" Error.pp e
  | Failure_u32 (e, a) -> Format.fprintf fmt "Failure(%a,%d)" Error.pp e a
  | Failure_u32_u32 (e, a, b) ->
      Format.fprintf fmt "Failure(%a,%d,%d)" Error.pp e a b
  | Success -> Format.fprintf fmt "Success"
  | Success_u32 a -> Format.fprintf fmt "Success(%d)" a
  | Success_u32_u32 (a, b) -> Format.fprintf fmt "Success(%d,%d)" a b
  | Success_u32_u32_u32 (a, b, c) -> Format.fprintf fmt "Success(%d,%d,%d)" a b c

let ret_is_success = function
  | Success | Success_u32 _ | Success_u32_u32 _ | Success_u32_u32_u32 _ -> true
  | Failure _ | Failure_u32 _ | Failure_u32_u32 _ -> false
