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
  | Rupcall of {
      fnptr : int;
      appdata : int;
      arg0 : int;
      arg1 : int;
      arg2 : int;
    }

type execution = {
  step : fuel:int -> resume_arg -> trap * int;
  destroy : unit -> unit;
}

type upcall = { fnptr : int; appdata : int }

let null_upcall = { fnptr = 0; appdata = 0 }

type pending_upcall = {
  pu_driver : int;
  pu_subscribe : int;
  pu_upcall : upcall;
  pu_args : int * int * int;
}

(* An allowed buffer, materialized as a window over process memory at
   allow time (§4.2): [a_window] is a base-bounded Subslice the kernel
   hands to capsules in place — no per-access translation, no copy, and
   no way to widen past the allowed range. [None] iff the allow is
   zero-length (a Tock 2.0 revocation). *)
type allow_entry = { a_addr : int; a_len : int; a_window : Subslice.t option }

let zero_allow = { a_addr = 0; a_len = 0; a_window = None }

let some_zero_allow = Some zero_allow

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
  upcall_slots : upcall Int_hashtbl.Pair.t; (* (driver, subscribe_num) *)
  pending : pending_upcall Ring_buffer.t;
  allows_rw : allow_entry Int_hashtbl.Pair.t; (* (driver, allow_num) *)
  allows_ro : allow_entry Int_hashtbl.Pair.t;
  grants : (int, Univ.t) Hashtbl.t;
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

let dummy_pending =
  { pu_driver = 0; pu_subscribe = 0; pu_upcall = null_upcall; pu_args = (0, 0, 0) }

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
    upcall_slots = Int_hashtbl.Pair.create 16;
    pending = Ring_buffer.create ~capacity:upcall_queue_capacity ~dummy:dummy_pending;
    allows_rw = Int_hashtbl.Pair.create 16;
    allows_ro = Int_hashtbl.Pair.create 16;
    grants = Hashtbl.create 8;
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

let mem_view t ~addr ~len =
  if len < 0 then None
  else if addr >= t.p_ram_base && addr + len <= ram_end t then
    Some (`Ram (addr - t.p_ram_base))
  else if addr >= t.p_flash_base && addr + len <= flash_end t then
    Some (`Flash (addr - t.p_flash_base))
  else None

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
    if c.c_gen = gen && addr >= c.c_lo && addr + len <= c.c_hi then true
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

(* Absent slots read as the null upcall / zero allow. [find] with a
   handler rather than [find_opt]: these run on every subscribe, allow
   and enqueue, and must not box their result. *)
let find_or tbl key default =
  match Int_hashtbl.Pair.find tbl key with
  | v -> v
  | exception Not_found -> default

let subscribe_swap t ~driver ~subscribe_num up =
  let key = (driver, subscribe_num) in
  let old = find_or t.upcall_slots key null_upcall in
  Int_hashtbl.Pair.replace t.upcall_slots key up;
  old

let get_subscribed t ~driver ~subscribe_num =
  find_or t.upcall_slots (driver, subscribe_num) null_upcall

let enqueue_upcall t ~driver ~subscribe_num ~args =
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
    Ring_buffer.push t.pending
      { pu_driver = driver; pu_subscribe = subscribe_num; pu_upcall = up;
        pu_args = args }

let pop_upcall t = Ring_buffer.pop t.pending

let pop_upcall_for t ~driver ~subscribe_num =
  Ring_buffer.find_remove t.pending (fun pu ->
      pu.pu_driver = driver && pu.pu_subscribe = subscribe_num)

let has_upcall_for t ~driver ~subscribe_num =
  let found = ref false in
  Ring_buffer.iter t.pending (fun pu ->
      if pu.pu_driver = driver && pu.pu_subscribe = subscribe_num then
        found := true);
  !found

let has_pending_upcalls t = not (Ring_buffer.is_empty t.pending)

let iter_subscriptions t f =
  Int_hashtbl.Pair.iter
    (fun (driver, subscribe_num) up -> f ~driver ~subscribe_num up)
    t.upcall_slots

let iter_pending_upcalls t f = Ring_buffer.iter t.pending f

let upcalls_dropped t = Ring_buffer.drops t.pending

(* ---- allows ---- *)

let allow_table t = function `Ro -> t.allows_ro | `Rw -> t.allows_rw

let allow_swap t ~kind ~driver ~allow_num entry =
  let tbl = allow_table t kind in
  let key = (driver, allow_num) in
  let old = find_or tbl key zero_allow in
  Int_hashtbl.Pair.replace tbl key entry;
  old

let allow_get t ~kind ~driver ~allow_num =
  find_or (allow_table t kind) (driver, allow_num) zero_allow

let allow_overlaps t ~kind ~addr ~len =
  len > 0
  && Int_hashtbl.Pair.fold
       (fun _ e acc ->
         acc
         || (e.a_len > 0 && e.a_addr < addr + len && addr < e.a_addr + e.a_len))
       (allow_table t kind) false

(* Materialize the window at allow time: this is the single point where
   an (addr, len) pair crosses from process arithmetic into a checked
   byte window, so every later capsule access is already bounds-safe. *)
let make_allow_entry t ~addr ~len =
  if len = 0 then
    (* Unallow (the zero buffer) is half of every allow pair. *)
    if addr = 0 then some_zero_allow
    else Some { a_addr = addr; a_len = 0; a_window = None }
  else
    match mem_view t ~addr ~len with
    | Some (`Ram off) ->
        Some
          { a_addr = addr; a_len = len;
            a_window = Some (Subslice.of_bytes_window t.ram ~pos:off ~len) }
    | Some (`Flash off) ->
        Some
          { a_addr = addr; a_len = len;
            a_window = Some (Subslice.of_bytes_window t.flash ~pos:off ~len) }
    | None -> None

let iter_allows t f =
  Int_hashtbl.Pair.iter
    (fun (driver, allow_num) e -> f ~kind:`Rw ~driver ~allow_num e)
    t.allows_rw;
  Int_hashtbl.Pair.iter
    (fun (driver, allow_num) e -> f ~kind:`Ro ~driver ~allow_num e)
    t.allows_ro

(* ---- grants ---- *)

let grant_table t = t.grants

(* ---- execution ---- *)

let run t ~fuel arg =
  match t.exec with
  | Some e -> e.step ~fuel arg
  | None -> invalid_arg "Process.run: no execution attached"

let destroy_execution t =
  (match t.exec with Some e -> e.destroy () | None -> ());
  t.exec <- None

let has_execution t = t.exec <> None

(* ---- lifecycle ---- *)

let note_restart t = t.restarts <- t.restarts + 1

let restart_count t = t.restarts

let reset_syscall_state t =
  Int_hashtbl.Pair.reset t.upcall_slots;
  Ring_buffer.clear t.pending;
  Int_hashtbl.Pair.reset t.allows_rw;
  Int_hashtbl.Pair.reset t.allows_ro;
  Hashtbl.reset t.grants;
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

(* ---- freeze/thaw support ----

   Direct state materialization: [Kernel.thaw] rebuilds a board from
   its construction recipe and then patches each process to the frozen
   image. These helpers exist only for that path (and the restart path
   for the checkpoint fields); none of them is reachable from the
   syscall ABI. *)

let checkpoint t = t.p_ckpt

let set_checkpoint t i = t.p_ckpt <- i

let set_resume_alarm t v = t.p_resume_alarm <- v

let take_resume_alarm t =
  let v = t.p_resume_alarm in
  t.p_resume_alarm <- None;
  v

let at_sleep t = t.p_at_sleep

let set_at_sleep t v = t.p_at_sleep <- v

let set_bridge t b = t.p_bridge <- Some b

let bridge t = t.p_bridge

let iter_syscall_classes t f =
  Array.iteri
    (fun i count ->
      if count > 0 then f ~class_num:(Syscall.class_of_index i) ~count)
    t.class_counts;
  Int_hashtbl.Int.iter (fun class_num count -> f ~class_num ~count) t.other_classes

let restore_syscall_class t ~class_num ~count = set_class_count t ~class_num ~count

let restore_counters t ~restarts ~syscalls ~grant_enters =
  t.restarts <- restarts;
  t.syscalls <- syscalls;
  t.grant_enters <- grant_enters

let restore_mpu_scans t n = Tock_hw.Mpu.restore_scan_count t.mpu_config n

(* The access caches and the generation they were stamped at are real
   behavioral state: a warm cache skips the next region-table scan, and
   scan counts are observable through metrics. Freeze captures them and
   thaw puts them back (the thaw rebuild's own churn both bumps the
   generation and re-primes caches differently than the original
   history did). *)
let mpu_cache_state t =
  ( Tock_hw.Mpu.generation t.mpu_config,
    List.map
      (fun c -> (c.c_gen, c.c_lo, c.c_hi))
      [ t.cache_read; t.cache_write; t.cache_exec ] )

let restore_mpu_cache t ~generation ~caches =
  match caches with
  | [ r; w; x ] ->
      Tock_hw.Mpu.restore_generation t.mpu_config generation;
      List.iter2
        (fun c (g, lo, hi) ->
          c.c_gen <- g;
          c.c_lo <- lo;
          c.c_hi <- hi)
        [ t.cache_read; t.cache_write; t.cache_exec ]
        [ r; w; x ]
  | _ -> invalid_arg "Process.restore_mpu_cache: want exactly 3 entries"

let set_upcall_drops t n = Ring_buffer.set_drops t.pending n

let restore_breaks t ~app_break ~kernel_break =
  if
    app_break < t.p_ram_base || kernel_break > ram_end t
    || app_break > kernel_break
  then false
  else
    match
      Tock_hw.Mpu.update_app_memory_region t.mpu t.mpu_config ~app_break
        ~kernel_break
    with
    | Ok () ->
        t.app_break <- app_break;
        t.kernel_break <- kernel_break;
        true
    | Error _ -> false

let clear_syscall_tables t =
  Int_hashtbl.Pair.reset t.upcall_slots;
  Ring_buffer.clear t.pending;
  Int_hashtbl.Pair.reset t.allows_rw;
  Int_hashtbl.Pair.reset t.allows_ro;
  Array.fill t.class_counts 0 Syscall.classes 0;
  Int_hashtbl.Int.reset t.other_classes

let restore_subscription t ~driver ~subscribe_num up =
  Int_hashtbl.Pair.replace t.upcall_slots (driver, subscribe_num) up

let restore_allow t ~kind ~driver ~allow_num ~addr ~len =
  match make_allow_entry t ~addr ~len with
  | Some e ->
      Int_hashtbl.Pair.replace (allow_table t kind) (driver, allow_num) e;
      true
  | None -> false

let restore_pending_upcall t pu = Ring_buffer.push t.pending pu
