type id = int

type fault_reason =
  | Mpu_violation of string
  | Bad_syscall of string
  | App_panic of string

let describe_fault = function
  | Mpu_violation s -> "MPU violation: " ^ s
  | Bad_syscall s -> "bad syscall: " ^ s
  | App_panic s -> "app panic: " ^ s

type state =
  | Unstarted
  | Runnable
  | Yielded
  | Yielded_for of { driver : int; subscribe_num : int }
  | Blocked_command of { driver : int; subscribe_num : int }
  | Faulted of fault_reason
  | Terminated of { code : int }
  | Stopped of state

type trap =
  | Trap_syscall of int array
  | Trap_fault of fault_reason
  | Trap_timeslice_expired

type resume_arg =
  | Rstart
  | Rcontinue
  | Rsyscall_ret of int array
  | Rupcall of int array (* fnptr, appdata, arg0, arg1, arg2 *)

type execution = {
  step : fuel:int -> resume_arg -> trap;
  used : unit -> int;
  destroy : unit -> unit;
}

type upcall = { fnptr : int; appdata : int }

let null_upcall = { fnptr = 0; appdata = 0 }

(* An allowed buffer, materialized as a window over process memory at
   allow time (§4.2): [a_window] is a base-bounded Subslice the kernel
   hands to capsules in place — no per-access translation, no copy, and
   no way to widen past the allowed range. [None] iff the allow is
   zero-length (a Tock 2.0 revocation). *)
type allow_entry = { a_addr : int; a_len : int; a_window : Subslice.t option }

let zero_allow = { a_addr = 0; a_len = 0; a_window = None }

(* What [allow_entry] answers for a range outside process memory;
   compared by address, never installed. *)
let no_entry = { a_addr = -1; a_len = -1; a_window = None }

(* ---- the subscribe and allow tables ----

   A process holds a handful of (driver, num) keys per table, so each
   table is a small array scanned linearly: a lookup compares ints and
   allocates nothing, where a hash table would box a tuple key per
   call. A key stays once added, until [clear_tables]: a null
   subscription or a zero allow is state that freeze writes into the
   witness. *)
type 'a table = {
  mutable keys : int array; (* driver at 2i, num at 2i + 1 *)
  mutable vals : 'a array;
  mutable size : int;
}

let empty_table () = { keys = [||]; vals = [||]; size = 0 }

let rec index_from keys size driver num i =
  if i >= size then -1
  else if
    Array.unsafe_get keys (2 * i) = driver
    && Array.unsafe_get keys ((2 * i) + 1) = num
  then i
  else index_from keys size driver num (i + 1)

let index tbl ~driver ~num = index_from tbl.keys tbl.size driver num 0

let add tbl ~driver ~num v =
  let i = tbl.size in
  if i = Array.length tbl.vals then begin
    let cap = max 4 (2 * i) in
    let keys = Array.make (2 * cap) 0 and vals = Array.make cap v in
    Array.blit tbl.keys 0 keys 0 (2 * i);
    Array.blit tbl.vals 0 vals 0 i;
    tbl.keys <- keys;
    tbl.vals <- vals
  end;
  tbl.keys.(2 * i) <- driver;
  tbl.keys.((2 * i) + 1) <- num;
  tbl.vals.(i) <- v;
  tbl.size <- i + 1

(* Sorted (driver, num, value) triples: the witness's canonical order. *)
let table_bindings tbl =
  List.sort compare
    (List.init tbl.size (fun i ->
         (tbl.keys.(2 * i), tbl.keys.((2 * i) + 1), tbl.vals.(i))))

(* One allow key: the entry installed now, and the last entry ever
   installed under it other than the zero one. An allow of the range
   [last] spans installs [last] again instead of building a new window:
   the window over the same bytes and base is the same value. *)
type allow_slot = { mutable cur : allow_entry; mutable last : allow_entry }

(* Last-hit MPU access cache, one per access kind. The emulated data
   plane funnels every load/store through [check_access]; the common case
   is a run of accesses inside the same protection region, so we remember
   the permitting [c_lo, c_hi) range and the MPU configuration generation
   it was observed at. A hit is three integer compares — no region-table
   scan. Any mutation of the MPU config (region allocation, brk, restart)
   bumps the generation and implicitly invalidates all three entries;
   caching a range across a generation change is exactly the stale-MPU
   bug class of paper §5.4, so validity is checked on every lookup. *)
type access_cache = {
  mutable c_gen : int; (* -1 = never primed *)
  mutable c_lo : int;
  mutable c_hi : int;
}

let fresh_cache () = { c_gen = -1; c_lo = 0; c_hi = 0 }

let upcall_queue_capacity = 16

(* Ints per queued upcall: driver, subscribe number, fnptr, appdata and
   the three arguments. *)
let pending_width = 7

(* ---- freeze/thaw bridge ----

   Process executions are effect continuations and cannot be
   serialized, but the userland emulator keeps a small amount of
   *data* state beside the continuation (bump-allocator cursor, upcall
   function-id counter, named scratch buffers). The emulator installs a
   [bridge] of closures over that state when it attaches an execution,
   so the kernel's freeze/thaw machinery can capture and re-establish
   it without [Tock] depending on the userland layer. *)

type emu_residue = {
  er_alloc_next : int;
  er_next_fn : int;
  er_scratch : (string * (int * int)) list;  (* tag -> (addr, size), sorted *)
}

type bridge = {
  br_residue : unit -> emu_residue;
  br_set_residue : emu_residue -> unit;
  br_remap_upcall : old_id:int -> new_id:int -> bool;
      (* Rebind the closure registered under a live upcall function id
         to the id recorded in a frozen image (ids are handed out in
         registration order, which a thaw prologue replays only
         partially). False if no closure lives under [old_id]. *)
}

type t = {
  p_id : id;
  p_name : string;
  ram : bytes;
  p_ram_base : int;
  mutable app_break : int;
  mutable kernel_break : int;
  initial_app_break : int;
  initial_kernel_break : int;
  p_flash_base : int;
  flash : bytes;
  mpu : Tock_hw.Mpu.t;
  mpu_config : Tock_hw.Mpu.config;
  cache_read : access_cache;
  cache_write : access_cache;
  cache_exec : access_cache;
  upcall_slots : upcall table; (* (driver, subscribe_num) *)
  pending : Ring_buffer.t;
      (* The upcall queue: [pending_width] ints per upcall, so once the
         ring has grown to the queue's depth, queueing, delivering and
         plucking one allocate nothing. Overflow drops the new upcall
         and counts it, as Tock does. *)
  allows_rw : allow_slot table; (* (driver, allow_num) *)
  allows_ro : allow_slot table;
  grants : Univ.t Int_hashtbl.Int.t; (* by grant id *)
  mutable grant_bytes : int;
  mutable exec : execution option;
  mutable p_state : state;
  mutable restarts : int;
  mutable syscalls : int;
  class_counts : int array; (* by [Syscall.class_index] *)
  other_classes : int Int_hashtbl.Int.t;
      (* class number -> count, for numbers outside the known classes *)
  mutable grant_enters : int;
  mutable p_obs : Tock_obs.Ctx.t;
      (* Kernel-installed observability context; [Ctx.disabled] until the
         owning kernel adopts the process, so recording is always safe. *)
  p_permissions : (int * int) list option;
  p_storage : (int * int list) option;
  p_tbf_flags : int;
  mutable p_ckpt : int;
      (* Resumable-app checkpoint cursor: 0 = never checkpointed; apps
         that support freeze/thaw record their loop position here before
         each long sleep (see {!Tock_userland.Emu.checkpoint}). Part of
         the board witness. *)
  mutable p_resume_alarm : (int * int) option;
      (* (reference, dt) of the armed alarm a frozen process was
         sleeping on; installed by [Kernel.thaw] before the app's
         factory re-runs, consumed by the app's resume prologue. *)
  mutable p_at_sleep : bool;
      (* True only while the app is suspended in its post-checkpoint
         protocol sleep ([Libtock_sync.checkpoint_sleep] /
         [resume_sleep]) — the one suspension point the thaw
         fast-forward can faithfully rebuild. A freeze that catches a
         live app anywhere else (mid-I/O wait, console busy-retry nap)
         is witnessable but not thawable. *)
  mutable p_bridge : bridge option;
}

let create ~id ~name ~ram_base ~ram_size ~initial_app_break ~flash_base ~flash
    ~mpu ~mpu_config ~permissions ~storage ~tbf_flags =
  let ram_end = ram_base + ram_size in
  if initial_app_break < ram_base || initial_app_break > ram_end then
    invalid_arg "Process.create: bad initial app break";
  {
    p_id = id;
    p_name = name;
    ram = Bytes.make ram_size '\x00';
    p_ram_base = ram_base;
    app_break = initial_app_break;
    (* Grants grow down from the very top of the block; the MPU's
       initial kernel-memory reserve is advisory, not a hard floor. *)
    kernel_break = ram_end;
    initial_app_break;
    initial_kernel_break = ram_end;
    p_flash_base = flash_base;
    flash;
    mpu;
    mpu_config;
    cache_read = fresh_cache ();
    cache_write = fresh_cache ();
    cache_exec = fresh_cache ();
    upcall_slots = empty_table ();
    pending =
      Ring_buffer.create ~capacity:upcall_queue_capacity ~width:pending_width;
    allows_rw = empty_table ();
    allows_ro = empty_table ();
    grants = Int_hashtbl.Int.create 8;
    grant_bytes = 0;
    exec = None;
    p_state = Unstarted;
    restarts = 0;
    syscalls = 0;
    class_counts = Array.make Syscall.classes 0;
    other_classes = Int_hashtbl.Int.create 1;
    grant_enters = 0;
    p_obs = Tock_obs.Ctx.disabled;
    p_permissions = permissions;
    p_storage = storage;
    p_tbf_flags = tbf_flags;
    p_ckpt = 0;
    p_resume_alarm = None;
    p_at_sleep = false;
    p_bridge = None;
  }

let set_execution t e = t.exec <- Some e

let set_obs t ctx = t.p_obs <- ctx

let obs t = t.p_obs

let id t = t.p_id

let name t = t.p_name

let state t = t.p_state

let set_state t s = t.p_state <- s

let tbf_flags t = t.p_tbf_flags

let ram_base t = t.p_ram_base

let ram_end t = t.p_ram_base + Bytes.length t.ram

let app_break t = t.app_break

let kernel_break t = t.kernel_break

let flash_base t = t.p_flash_base

let flash_end t = t.p_flash_base + Bytes.length t.flash

let flash_image t = t.flash

let brk t addr =
  if addr < t.p_ram_base || addr > t.kernel_break then Error Error.NOMEM
  else
    match
      Tock_hw.Mpu.update_app_memory_region t.mpu t.mpu_config ~app_break:addr
        ~kernel_break:t.kernel_break
    with
    | Ok () ->
        t.app_break <- addr;
        Ok ()
    | Error _ -> Error Error.NOMEM

let sbrk t delta =
  let old = t.app_break in
  Result.map (fun () -> old) (brk t (old + delta))

let allocate_grant_bytes t n =
  assert (n >= 0);
  let new_break = t.kernel_break - n in
  (* The MPU app region must still fit below the new kernel break. *)
  if new_break < t.app_break then false
  else
    match
      Tock_hw.Mpu.update_app_memory_region t.mpu t.mpu_config
        ~app_break:t.app_break ~kernel_break:new_break
    with
    | Ok () ->
        t.kernel_break <- new_break;
        t.grant_bytes <- t.grant_bytes + n;
        true
    | Error _ -> false

let grant_bytes_used t = t.grant_bytes

(* Where [addr, addr + len) lies. The end checks subtract from the end
   rather than add [len] to an app-supplied address, which could wrap
   past [max_int]. *)
type region = In_ram | In_flash | Outside

let region t ~addr ~len =
  if len < 0 then Outside
  else if addr >= t.p_ram_base && len <= ram_end t - addr then In_ram
  else if addr >= t.p_flash_base && len <= flash_end t - addr then In_flash
  else Outside

let mem_view t ~addr ~len =
  match region t ~addr ~len with
  | In_ram -> Some (`Ram (addr - t.p_ram_base))
  | In_flash -> Some (`Flash (addr - t.p_flash_base))
  | Outside -> None

let ram_bytes t = t.ram

let check_access t ~addr ~len kind =
  if len < 0 then false
  else if len = 0 then true
  else begin
    let c =
      match kind with
      | `Read -> t.cache_read
      | `Write -> t.cache_write
      | `Execute -> t.cache_exec
    in
    let gen = Tock_hw.Mpu.generation t.mpu_config in
    if c.c_gen = gen && addr >= c.c_lo && len <= c.c_hi - addr then true
    else begin
      let granted =
        match
          Tock_hw.Mpu.check_with_range t.mpu t.mpu_config ~addr ~len kind
        with
        | Some (lo, hi) ->
            c.c_lo <- lo;
            c.c_hi <- hi;
            c.c_gen <- gen;
            true
        | None -> false
      in
      (* Slow path only: cache hits are the data-plane common case and
         must stay three compares. *)
      let tr = t.p_obs.Tock_obs.Ctx.trace in
      if Tock_obs.Trace.on tr then begin
        let text =
          match (kind, granted) with
          | `Read, true -> "read"
          | `Write, true -> "write"
          | `Execute, true -> "exec"
          | `Read, false -> "read denied"
          | `Write, false -> "write denied"
          | `Execute, false -> "exec denied"
        in
        Tock_obs.Trace.emit tr
          ~ts:(Tock_obs.Ctx.now t.p_obs)
          ~tid:t.p_id Tock_obs.Trace.Mpu_check Tock_obs.Trace.Instant ~arg:addr
          ~text
      end;
      granted
    end
  end

(* ---- upcalls ---- *)

let subscribe_swap t ~driver ~subscribe_num up =
  let tbl = t.upcall_slots in
  let i = index tbl ~driver ~num:subscribe_num in
  if i < 0 then begin
    add tbl ~driver ~num:subscribe_num up;
    null_upcall
  end
  else begin
    let old = tbl.vals.(i) in
    tbl.vals.(i) <- up;
    old
  end

let get_subscribed t ~driver ~subscribe_num =
  let tbl = t.upcall_slots in
  let i = index tbl ~driver ~num:subscribe_num in
  if i < 0 then null_upcall else tbl.vals.(i)

let push_pending t ~driver ~subscribe_num ~fnptr ~appdata a0 a1 a2 =
  let o = Ring_buffer.push t.pending in
  o >= 0
  && begin
       let q = Ring_buffer.data t.pending in
       q.(o) <- driver;
       q.(o + 1) <- subscribe_num;
       q.(o + 2) <- fnptr;
       q.(o + 3) <- appdata;
       q.(o + 4) <- a0;
       q.(o + 5) <- a1;
       q.(o + 6) <- a2;
       true
     end

let enqueue_upcall t ~driver ~subscribe_num ~args:(a0, a1, a2) =
  let up = get_subscribed t ~driver ~subscribe_num in
  (* A process parked in yield-wait-for or a blocking command receives the
     completion's arguments directly in registers — no upcall function is
     invoked — so a null subscription must not swallow it. Everywhere
     else, scheduling on a null upcall is an accepted no-op (Tock). *)
  let directly_awaited =
    match t.p_state with
    | Yielded_for w -> w.driver = driver && w.subscribe_num = subscribe_num
    | Blocked_command w -> w.driver = driver && w.subscribe_num = subscribe_num
    | _ -> false
  in
  if up.fnptr = 0 && not directly_awaited then true
  else
    push_pending t ~driver ~subscribe_num ~fnptr:up.fnptr ~appdata:up.appdata
      a0 a1 a2

(* Copy the [i]th oldest upcall into [frame] as fnptr, appdata and its
   three arguments, then remove it; the others keep their order. *)
let take_pending t i frame =
  let q = t.pending in
  Array.blit (Ring_buffer.data q) (Ring_buffer.offset q i + 2) frame 0 5;
  Ring_buffer.remove q i

let pop_upcall t frame =
  let q = t.pending in
  if Ring_buffer.length q = 0 then -1
  else begin
    let driver = (Ring_buffer.data q).(Ring_buffer.offset q 0) in
    take_pending t 0 frame;
    driver
  end

let pop_upcall_for t ~driver ~subscribe_num frame =
  let i = Ring_buffer.find t.pending driver subscribe_num in
  i >= 0
  && begin
       take_pending t i frame;
       true
     end

let has_upcall_for t ~driver ~subscribe_num =
  Ring_buffer.find t.pending driver subscribe_num >= 0

let has_pending_upcalls t = Ring_buffer.length t.pending > 0

let upcalls_dropped t = Ring_buffer.drops t.pending

(* ---- allows ---- *)

let allow_table t = function `Ro -> t.allows_ro | `Rw -> t.allows_rw

let allow_swap t ~kind ~driver ~allow_num entry =
  let tbl = allow_table t kind in
  let i = index tbl ~driver ~num:allow_num in
  if i < 0 then begin
    add tbl ~driver ~num:allow_num
      { cur = entry; last = (if entry == zero_allow then no_entry else entry) };
    zero_allow
  end
  else begin
    let slot = tbl.vals.(i) in
    let old = slot.cur in
    slot.cur <- entry;
    if entry != zero_allow then slot.last <- entry;
    old
  end

let allow_get t ~kind ~driver ~allow_num =
  let tbl = allow_table t kind in
  let i = index tbl ~driver ~num:allow_num in
  if i < 0 then zero_allow else tbl.vals.(i).cur

let rec overlaps_from slots size ~addr ~len i =
  if i >= size then false
  else
    let e = (Array.unsafe_get slots i).cur in
    (e.a_len > 0 && e.a_addr < addr + len && addr < e.a_addr + e.a_len)
    || overlaps_from slots size ~addr ~len (i + 1)

let allow_overlaps t ~kind ~addr ~len =
  let tbl = allow_table t kind in
  len > 0 && overlaps_from tbl.vals tbl.size ~addr ~len 0

(* Materialize the window: this is the single point where an (addr,
   len) pair crosses from process arithmetic into a checked byte window,
   so every later capsule access is already bounds-safe. *)
let window t ~addr ~len =
  if len = 0 then
    (* Unallow (the zero buffer) is half of every allow pair. *)
    if addr = 0 then zero_allow
    else { a_addr = addr; a_len = 0; a_window = None }
  else
    match region t ~addr ~len with
    | In_ram ->
        let pos = addr - t.p_ram_base in
        { a_addr = addr; a_len = len;
          a_window = Some (Subslice.of_bytes_window t.ram ~pos ~len) }
    | In_flash ->
        let pos = addr - t.p_flash_base in
        { a_addr = addr; a_len = len;
          a_window = Some (Subslice.of_bytes_window t.flash ~pos ~len) }
    | Outside -> no_entry

(* The entry an allow of [addr, len] under this key installs: the key's
   last entry if it spans the same range, so a buffer allowed and
   revoked in a loop reuses one window. *)
let allow_entry t ~kind ~driver ~allow_num ~addr ~len =
  let tbl = allow_table t kind in
  let i = index tbl ~driver ~num:allow_num in
  let last = if i < 0 then no_entry else tbl.vals.(i).last in
  if last.a_addr = addr && last.a_len = len then last else window t ~addr ~len

(* ---- grants ---- *)

let grant_table t = t.grants

(* ---- execution ---- *)

let run t ~fuel arg =
  match t.exec with
  | Some e -> e.step ~fuel arg
  | None -> invalid_arg "Process.run: no execution attached"

let cycles_used t = match t.exec with Some e -> e.used () | None -> 0

let destroy_execution t =
  (match t.exec with Some e -> e.destroy () | None -> ());
  t.exec <- None

(* ---- lifecycle ---- *)

let note_restart t = t.restarts <- t.restarts + 1

let restart_count t = t.restarts

(* Drop subscriptions, queued upcalls and allows: restart does, and so
   does thaw before it restores the frozen tables. *)
let clear_tables t =
  t.upcall_slots.size <- 0;
  Ring_buffer.clear t.pending;
  t.allows_rw.size <- 0;
  t.allows_ro.size <- 0

let reset_syscall_state t =
  clear_tables t;
  Int_hashtbl.Int.reset t.grants;
  t.grant_bytes <- 0;
  t.app_break <- t.initial_app_break;
  t.kernel_break <- t.initial_kernel_break;
  t.p_ckpt <- 0;
  t.p_resume_alarm <- None;
  t.p_at_sleep <- false;
  Bytes.fill t.ram 0 (Bytes.length t.ram) '\x00';
  ignore
    (Tock_hw.Mpu.update_app_memory_region t.mpu t.mpu_config
       ~app_break:t.app_break ~kernel_break:t.kernel_break)

(* Known classes count in a flat array; any other class number (a
   NOSUPPORT trap) goes to the int-keyed overflow table. *)
let other_class_count t class_num =
  match Int_hashtbl.Int.find t.other_classes class_num with
  | n -> n
  | exception Not_found -> 0

let set_class_count t ~class_num ~count =
  let i = Syscall.class_index class_num in
  if i >= 0 then t.class_counts.(i) <- count
  else Int_hashtbl.Int.replace t.other_classes class_num count

let syscall_count_by_class t ~class_num =
  let i = Syscall.class_index class_num in
  if i >= 0 then t.class_counts.(i) else other_class_count t class_num

let note_syscall t ~class_num =
  t.syscalls <- t.syscalls + 1;
  set_class_count t ~class_num ~count:(syscall_count_by_class t ~class_num + 1)

let note_grant_enter t = t.grant_enters <- t.grant_enters + 1

let grant_enter_count t = t.grant_enters

let mpu_scan_count t = Tock_hw.Mpu.scan_count t.mpu_config

let syscall_count t = t.syscalls

let storage_ids t = t.p_storage

let command_allowed t ~driver ~command_num =
  match t.p_permissions with
  | None -> true
  | Some perms ->
      (* An unlisted driver has the empty mask. *)
      let rec mask = function
        | [] -> 0
        | (d, m) :: rest -> if d = driver then m else mask rest
      in
      let bit = if command_num >= 32 then 31 else command_num in
      mask perms land (1 lsl bit) <> 0

(* ---- freeze/thaw: the process's witness record ----

   [Kernel.freeze] writes one record per process into the witness's
   [procs] section ([add_image]); [Kernel.thaw] reads them back
   ([read_images]), rebuilds the board from its recipe and patches each
   process to its image ([thaw_begin], [thaw_patch]). Only this module
   knows the record's fields, so only it writes, reads and restores
   them; none of it is reachable from the syscall ABI. *)

let checkpoint t = t.p_ckpt

let set_checkpoint t i = t.p_ckpt <- i

let set_resume_alarm t v = t.p_resume_alarm <- v

let take_resume_alarm t =
  let v = t.p_resume_alarm in
  t.p_resume_alarm <- None;
  v

let set_at_sleep t v = t.p_at_sleep <- v

let set_bridge t b = t.p_bridge <- Some b

(* The freeze points thaw can rebuild: [None] if it accepts a process
   frozen in [state] with checkpoint cursor [ckpt] and at-sleep flag
   [at_sleep], else why not. A dead process keeps its corpse. A live
   one must have checkpointed and sit in its checkpoint sleep as plain
   [Yielded]: frozen at any other yield (I/O wait, busy-retry nap),
   every witnessed byte could still match while the rebuilt
   continuation sits elsewhere. [Stopped] and [Unstarted] need a live
   execution the rebuild cannot recreate. *)
let unthawable ~ckpt ~at_sleep state =
  match state with
  | Faulted _ | Terminated _ -> None
  | Stopped _ -> Some "frozen stopped"
  | Unstarted -> Some "frozen unstarted"
  | _ when ckpt = 0 -> Some "is live but never checkpointed"
  | _ when not at_sleep -> Some "frozen outside its checkpoint sleep"
  | Yielded -> None
  | Runnable | Yielded_for _ | Blocked_command _ ->
      Some "frozen in unresumable state"

let thawable t =
  Option.is_none (unthawable ~ckpt:t.p_ckpt ~at_sleep:t.p_at_sleep t.p_state)

module Frame = Tock_obs.Frame

let add_i = Frame.add_int
let add_s = Frame.add_string

let rec encode_state b = function
  | Unstarted -> add_i b 0
  | Runnable -> add_i b 1
  | Yielded -> add_i b 2
  | Yielded_for { driver; subscribe_num } ->
      add_i b 3;
      add_i b driver;
      add_i b subscribe_num
  | Blocked_command { driver; subscribe_num } ->
      add_i b 4;
      add_i b driver;
      add_i b subscribe_num
  | Faulted r ->
      add_i b 5;
      add_s b
        (match r with
        | Mpu_violation m -> "M" ^ m
        | Bad_syscall m -> "B" ^ m
        | App_panic m -> "A" ^ m)
  | Terminated { code } ->
      add_i b 6;
      add_i b code
  | Stopped prior ->
      add_i b 7;
      encode_state b prior

let encode_resume b = function
  | None -> add_i b 0
  | Some Rstart -> add_i b 1
  | Some Rcontinue -> add_i b 2
  | Some (Rsyscall_ret regs) ->
      add_i b 3;
      add_i b (Array.length regs);
      Array.iter (add_i b) regs
  | Some (Rupcall frame) ->
      add_i b 4;
      Array.iter (add_i b) frame

(* Sparse RAM image: (offset, bytes) runs of interesting data. A run
   ends once more than [zero_fold] zeros follow its last nonzero byte
   (shorter zero gaps cost less inside a run than a new run header);
   everything not covered by a run is zero. Most of an app's 4 KiB
   block never leaves zero (bump allocator, shallow stacks), so this
   keeps the witness O(touched state). *)
let zero_fold = 16

let encode_ram b ram =
  let len = Bytes.length ram in
  (* [stop] is one past the run's last nonzero byte, [j] the next byte *)
  let rec run_end stop j =
    if j >= len then stop
    else if Bytes.get ram j <> '\x00' then run_end (j + 1) (j + 1)
    else if j + 1 - stop > zero_fold then stop
    else run_end stop (j + 1)
  in
  let rec runs i acc =
    if i >= len then List.rev acc
    else if Bytes.get ram i = '\x00' then runs (i + 1) acc
    else
      let stop = run_end (i + 1) (i + 1) in
      runs stop ((i, stop - i) :: acc)
  in
  add_i b len;
  Frame.add_list b
    (fun (off, n) -> add_i b off; add_i b n; Buffer.add_subbytes b ram off n)
    (runs 0 [])

(* The access caches and the generation they were stamped at are real
   behavioral state: a warm cache skips the next region-table scan, and
   scan counts are observable through metrics. Freeze captures them and
   thaw puts them back (the thaw rebuild's own churn both bumps the
   generation and re-primes caches differently than the original
   history did). *)
let caches t = [ t.cache_read; t.cache_write; t.cache_exec ]

(* The record, field by field: name, state, pending resume, counters,
   checkpoint, at-sleep flag, MPU generation and caches, emulator
   residue, per-class syscall counts, held grant names, subscriptions,
   allows, queued upcalls and sparse RAM. Tables are sorted by key for
   a canonical layout; queued upcalls keep their delivery order. *)
let add_image b t ~resume ~grants =
  add_s b t.p_name;
  encode_state b t.p_state;
  encode_resume b resume;
  List.iter (add_i b)
    [
      t.restarts; t.syscalls; t.grant_enters; t.grant_bytes; t.app_break;
      t.kernel_break; upcalls_dropped t; mpu_scan_count t; t.p_ckpt;
      (if t.p_at_sleep then 1 else 0); Tock_hw.Mpu.generation t.mpu_config;
    ];
  List.iter (fun c -> add_i b c.c_gen; add_i b c.c_lo; add_i b c.c_hi) (caches t);
  (match t.p_bridge with
  | None -> add_i b 0
  | Some br ->
      let r = br.br_residue () in
      List.iter (add_i b) [ 1; r.er_alloc_next; r.er_next_fn ];
      Frame.add_list b
        (fun (tag, (addr, size)) -> add_s b tag; add_i b addr; add_i b size)
        r.er_scratch);
  let classes = ref [] in
  Array.iteri
    (fun i count ->
      if count > 0 then classes := (Syscall.class_of_index i, count) :: !classes)
    t.class_counts;
  Int_hashtbl.Int.iter (fun c n -> classes := (c, n) :: !classes) t.other_classes;
  Frame.add_list b (fun (c, n) -> add_i b c; add_i b n) (List.sort compare !classes);
  Frame.add_list b (add_s b) grants;
  Frame.add_list b
    (fun (d, s, up) ->
      add_i b d;
      add_i b s;
      add_i b up.fnptr;
      add_i b up.appdata)
    (table_bindings t.upcall_slots);
  let allows k tbl =
    List.map (fun (d, n, slot) -> (k, d, n, slot.cur.a_addr, slot.cur.a_len))
      (table_bindings tbl)
  in
  Frame.add_list b
    (fun (k, d, n, addr, len) -> List.iter (add_i b) [ k; d; n; addr; len ])
    (allows 0 t.allows_rw @ allows 1 t.allows_ro);
  let q = t.pending in
  add_i b (Ring_buffer.length q);
  for i = 0 to Ring_buffer.length q - 1 do
    let o = Ring_buffer.offset q i in
    for j = 0 to pending_width - 1 do
      add_i b (Ring_buffer.data q).(o + j)
    done
  done;
  encode_ram b t.ram

type image = {
  i_name : string;
  i_state : state;
  i_resume : resume_arg option;
  i_restarts : int;
  i_syscalls : int;
  i_grant_enters : int;
  i_grant_bytes : int;
  i_app_break : int;
  i_kernel_break : int;
  i_upcall_drops : int;
  i_mpu_scans : int;
  i_ckpt : int;
  i_at_sleep : bool;
  i_mpu_gen : int;
  i_caches : (int * int * int) list;  (* read, write, execute *)
  i_residue : emu_residue option;
  i_classes : (int * int) list;
  i_grants : string list;
  i_subs : (int * int * upcall) list;
  i_allows : ([ `Rw | `Ro ] * int * int * int * int) list;
  i_pending : int array list; (* [pending_width] ints each, oldest first *)
  i_ram_len : int;
  i_ram_runs : (int * string) list;
}

let image_name i = i.i_name
let image_grants i = i.i_grants
let image_resume i = i.i_resume
let image_subscriptions i = i.i_subs
let image_allows i = i.i_allows

let rec decode_state r =
  match Frame.int r with
  | 0 -> Unstarted
  | 1 -> Runnable
  | 2 -> Yielded
  | 3 ->
      let driver = Frame.int r in
      Yielded_for { driver; subscribe_num = Frame.int r }
  | 4 ->
      let driver = Frame.int r in
      Blocked_command { driver; subscribe_num = Frame.int r }
  | 5 ->
      let s = Frame.string r in
      if String.length s = 0 then Frame.fail "empty fault reason";
      let m = String.sub s 1 (String.length s - 1) in
      Faulted
        (match s.[0] with
        | 'M' -> Mpu_violation m
        | 'B' -> Bad_syscall m
        | 'A' -> App_panic m
        | c -> Frame.fail "unknown fault tag %c" c)
  | 6 -> Terminated { code = Frame.int r }
  | 7 -> Stopped (decode_state r)
  | n -> Frame.fail "unknown process-state tag %d" n

let decode_resume r =
  match Frame.int r with
  | 0 -> None
  | 1 -> Some Rstart
  | 2 -> Some Rcontinue
  | 3 ->
      let n = Frame.int r in
      if n < 0 || n > 16 then Frame.fail "bad register count %d" n;
      Some (Rsyscall_ret (Array.init n (fun _ -> Frame.int r)))
  | 4 -> Some (Rupcall (Array.init 5 (fun _ -> Frame.int r)))
  | n -> Frame.fail "unknown resume tag %d" n

let read_image r =
  let i_name = Frame.string r in
  let i_state = decode_state r in
  let i_resume = decode_resume r in
  let i_restarts = Frame.int r in
  let i_syscalls = Frame.int r in
  let i_grant_enters = Frame.int r in
  let i_grant_bytes = Frame.int r in
  let i_app_break = Frame.int r in
  let i_kernel_break = Frame.int r in
  let i_upcall_drops = Frame.int r in
  let i_mpu_scans = Frame.int r in
  let i_ckpt = Frame.int r in
  let i_at_sleep =
    match Frame.int r with
    | 0 -> false
    | 1 -> true
    | n -> Frame.fail "bad at-sleep flag %d" n
  in
  let i_mpu_gen = Frame.int r in
  let i_caches =
    List.init 3 (fun _ ->
        let g = Frame.int r in
        let lo = Frame.int r in
        (g, lo, Frame.int r))
  in
  let i_residue =
    match Frame.int r with
    | 0 -> None
    | 1 ->
        let er_alloc_next = Frame.int r in
        let er_next_fn = Frame.int r in
        let er_scratch =
          Frame.list r ~min:24 (fun r ->
              let tag = Frame.string r in
              let addr = Frame.int r in
              (tag, (addr, Frame.int r)))
        in
        Some { er_alloc_next; er_next_fn; er_scratch }
    | n -> Frame.fail "bad residue flag %d" n
  in
  let i_classes =
    Frame.list r ~min:16 (fun r ->
        let c = Frame.int r in
        (c, Frame.int r))
  in
  let i_grants = Frame.list r ~min:8 Frame.string in
  let i_subs =
    Frame.list r ~min:32 (fun r ->
        let d = Frame.int r in
        let s = Frame.int r in
        let fnptr = Frame.int r in
        (d, s, { fnptr; appdata = Frame.int r }))
  in
  let i_allows =
    Frame.list r ~min:40 (fun r ->
        let kind =
          match Frame.int r with
          | 0 -> `Rw
          | 1 -> `Ro
          | k -> Frame.fail "bad allow kind %d" k
        in
        let d = Frame.int r in
        let n = Frame.int r in
        let addr = Frame.int r in
        (kind, d, n, addr, Frame.int r))
  in
  let i_pending =
    Frame.list r ~min:(8 * pending_width) (fun r ->
        Array.init pending_width (fun _ -> Frame.int r))
  in
  let i_ram_len = Frame.int r in
  if i_ram_len < 0 then Frame.fail "bad RAM size %d" i_ram_len;
  let i_ram_runs =
    Frame.list r ~min:16 (fun r ->
        let off = Frame.int r in
        let rl = Frame.int r in
        if off < 0 || rl < 0 || rl > i_ram_len - off then
          Frame.fail "RAM run out of range (off=%d len=%d ram=%d)" off rl
            i_ram_len;
        (off, Frame.raw r rl))
  in
  { i_name; i_state; i_resume; i_restarts; i_syscalls; i_grant_enters;
    i_grant_bytes; i_app_break; i_kernel_break; i_upcall_drops; i_mpu_scans;
    i_ckpt; i_at_sleep; i_mpu_gen; i_caches; i_residue; i_classes; i_grants;
    i_subs; i_allows; i_pending; i_ram_len; i_ram_runs }

(* The smallest record: 31 words, every string and list empty. *)
let read_images r = Frame.list r ~min:(8 * 31) read_image

exception Thaw_failed of string

let thaw_fail fmt = Printf.ksprintf (fun m -> raise (Thaw_failed m)) fmt

let thawing f = match f () with () -> Ok () | exception Thaw_failed m -> Error m

let thaw_begin t img =
  thawing (fun () ->
      t.p_ckpt <- img.i_ckpt;
      (match unthawable ~ckpt:img.i_ckpt ~at_sleep:img.i_at_sleep img.i_state with
      | Some why -> thaw_fail "process %s %s" t.p_name why
      | None -> ());
      match img.i_state with
      | Yielded -> ()
      | dead ->
          (* Never run the factory, keep the corpse. *)
          destroy_execution t;
          t.p_state <- dead)

let thaw_patch t img =
  thawing (fun () ->
      let name = t.p_name in
      (* [thaw_begin] left every live process [Yielded]. *)
      (match img.i_state with
      | Yielded ->
          if t.exec = None then
            thaw_fail "process %s lost its execution in the prologue" name;
          (match t.p_state with
          | Yielded -> ()
          | _ -> thaw_fail "process %s did not settle into Yielded" name);
          (* Rebind the prologue's live upcall closures to the frozen
             function ids before the table restore makes those ids
             current. *)
          List.iter
            (fun (driver, subscribe_num, up) ->
              let live = (get_subscribed t ~driver ~subscribe_num).fnptr in
              if up.fnptr = 0 || live = up.fnptr then ()
              else if live = 0 then
                thaw_fail "process %s: no live closure for driver %d sub %d"
                  name driver subscribe_num
              else
                match t.p_bridge with
                | None -> thaw_fail "process %s has no emulator bridge" name
                | Some br ->
                    if not (br.br_remap_upcall ~old_id:live ~new_id:up.fnptr)
                    then
                      thaw_fail "process %s: upcall remap %d->%d failed" name
                        live up.fnptr)
            img.i_subs
      | _ -> ());
      clear_tables t;
      Array.fill t.class_counts 0 Syscall.classes 0;
      Int_hashtbl.Int.reset t.other_classes;
      List.iter
        (fun (driver, subscribe_num, up) ->
          ignore (subscribe_swap t ~driver ~subscribe_num up))
        img.i_subs;
      let app_break = img.i_app_break and kernel_break = img.i_kernel_break in
      if
        app_break < t.p_ram_base || kernel_break > ram_end t
        || app_break > kernel_break
        || Result.is_error
             (Tock_hw.Mpu.update_app_memory_region t.mpu t.mpu_config
                ~app_break ~kernel_break)
      then thaw_fail "process %s: frozen breaks rejected" name;
      t.app_break <- app_break;
      t.kernel_break <- kernel_break;
      List.iter
        (fun (kind, driver, allow_num, addr, len) ->
          let e = window t ~addr ~len in
          if e == no_entry then
            thaw_fail "process %s: allow %d/%d does not resolve" name driver
              allow_num;
          ignore (allow_swap t ~kind ~driver ~allow_num e))
        img.i_allows;
      List.iter
        (fun u ->
          if
            not
              (push_pending t ~driver:u.(0) ~subscribe_num:u.(1) ~fnptr:u.(2)
                 ~appdata:u.(3) u.(4) u.(5) u.(6))
          then thaw_fail "process %s: pending-upcall overflow" name)
        img.i_pending;
      let len = Bytes.length t.ram in
      if len <> img.i_ram_len then
        thaw_fail "process %s: RAM size %d <> witness %d" name len img.i_ram_len;
      Bytes.fill t.ram 0 len '\x00';
      List.iter
        (fun (off, data) -> Bytes.blit_string data 0 t.ram off (String.length data))
        img.i_ram_runs;
      t.restarts <- img.i_restarts;
      t.syscalls <- img.i_syscalls;
      t.grant_enters <- img.i_grant_enters;
      (* Thaw's own allow and break replumbing scanned the region table
         where the frozen board never did. *)
      Tock_hw.Mpu.restore_scan_count t.mpu_config img.i_mpu_scans;
      Tock_hw.Mpu.restore_generation t.mpu_config img.i_mpu_gen;
      List.iter2
        (fun c (g, lo, hi) ->
          c.c_gen <- g;
          c.c_lo <- lo;
          c.c_hi <- hi)
        (caches t) img.i_caches;
      t.p_at_sleep <- img.i_at_sleep;
      List.iter
        (fun (class_num, count) -> set_class_count t ~class_num ~count)
        img.i_classes;
      Ring_buffer.set_drops t.pending img.i_upcall_drops;
      (match (t.p_bridge, img.i_residue) with
      | Some br, Some res -> br.br_set_residue res
      | _, None -> ()
      | None, Some _ -> thaw_fail "process %s has no emulator bridge" name);
      t.p_state <- img.i_state;
      if t.grant_bytes <> img.i_grant_bytes then
        thaw_fail "process %s: grant bytes %d <> witness %d" name t.grant_bytes
          img.i_grant_bytes)
