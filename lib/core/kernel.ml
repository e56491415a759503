type fault_policy =
  | Panic_on_fault
  | Restart_on_fault of int
  | Stop_on_fault

type aliasing_policy = Cell_semantics | Reject_overlap

type config = {
  scheduler : Scheduler.t;
  fault_policy : fault_policy;
  aliasing_policy : aliasing_policy;
  blocking_commands : bool;
  max_processes : int;
}

let default_config () =
  {
    scheduler = Scheduler.round_robin ();
    fault_policy = Restart_on_fault 3;
    aliasing_policy = Cell_semantics;
    blocking_commands = false;
    max_processes = 8;
  }

(* The RAM pool processes are carved from: every board's SRAM budget. *)
let ram_base = 0x2000_0000
let ram_size = 128 * 1024

type stats = {
  syscalls : int;
  context_switches : int;
  upcalls_delivered : int;
  sleeps : int;
  loop_iterations : int;
  aliased_allows : int;
  zero_len_allows : int;
  overlap_rejected : int;
  faults : int;
  restarts : int;
  filtered_commands : int;
}

exception Panic of string

(* The kernel's counters live in its metrics registry (the single stats
   surface); this record caches the resolved handles so hot-path updates
   are plain field writes. [stats] below is a compatibility view built
   from the same series. *)
type kcounters = {
  c_syscalls : Tock_obs.Metrics.counter;
  c_context_switches : Tock_obs.Metrics.counter;
  c_upcalls_delivered : Tock_obs.Metrics.counter;
  c_sleeps : Tock_obs.Metrics.counter;
  c_loop_iterations : Tock_obs.Metrics.counter;
  c_aliased_allows : Tock_obs.Metrics.counter;
  c_zero_len_allows : Tock_obs.Metrics.counter;
  c_overlap_rejected : Tock_obs.Metrics.counter;
  c_faults : Tock_obs.Metrics.counter;
  c_restarts : Tock_obs.Metrics.counter;
  c_filtered_commands : Tock_obs.Metrics.counter;
}

(* Syscall classes by [Syscall.class_index], for the per-class latency
   histograms and trace spans. *)
let class_names =
  [| "yield"; "subscribe"; "command"; "allow_rw"; "allow_ro"; "memop";
     "exit"; "command_blocking" |]

type pentry = {
  proc : Process.t;
  factory : Process.t -> Process.execution;
  mutable pending_resume : Process.resume_arg option;
  ret_scratch : int array;
      (* Reused return-register buffer for this process's syscall
         returns; valid because a process always decodes a return before
         it can issue the syscall that would overwrite it. *)
  resume_ret : Process.resume_arg; (* [Rsyscall_ret ret_scratch], built once *)
  stash_ret : Process.resume_arg option; (* [Some resume_ret], built once *)
  upcall_frame : int array;
      (* The upcall being delivered: fnptr, appdata and three arguments,
         moved here out of the process's queue. Valid for the same reason
         as [ret_scratch]. *)
  resume_upcall : Process.resume_arg; (* [Rupcall upcall_frame], built once *)
  stash_upcall : Process.resume_arg option; (* [Some resume_upcall] *)
  mutable upcall_driver : int;
      (* driver of the upcall in [upcall_frame], for its trace event *)
  c_cycles : Tock_obs.Metrics.counter;
      (* cycles attributed to this process's slices (app + syscall work) *)
  (* [process.<name>.*] gauges, resolved at creation and set by the
     registry's snapshot hook *)
  g_syscalls : Tock_obs.Metrics.gauge;
  g_grant_enters : Tock_obs.Metrics.gauge;
  g_grant_bytes : Tock_obs.Metrics.gauge;
  g_restarts : Tock_obs.Metrics.gauge;
  g_mpu_scans : Tock_obs.Metrics.gauge;
  g_upcalls_dropped : Tock_obs.Metrics.gauge;
}

(* A registered driver and its [driver.<name>.*] registry series. *)
type driver_slot = {
  drv : Driver.t;
  d_commands : Tock_obs.Metrics.counter;
  d_cycles : Tock_obs.Metrics.counter;
}

(* Board-state components beyond the kernel's own reach (capsule and
   board state: virtual alarm order, uart capture, flash pages).
   Capsules/boards register one freezer per named witness section;
   [freeze] has each save straight into its section, [thaw] hands each
   a reader bounded to its section — [`Pre] loads run before the resume
   prologues (they may preallocate grants and install resume alarms),
   [`Post] loads after the wholesale state patch. *)
type freezer = {
  fz_phase : [ `Pre | `Post ];
  fz_save : Buffer.t -> unit;
  fz_load : Tock_obs.Frame.reader -> unit;
}

(* A grant registered for freeze/thaw, its payload type hidden. *)
type registered = Registered : 'a Grant.t -> registered

let grant_name (Registered g) = Grant.name g

type t = {
  k_chip : Tock_hw.Chip.t;
  k_config : config;
  k_reg : Tock_obs.Metrics.t;
      (* Kernel-owned registry: one per kernel, so per-board series stay
         separate even when boards share a Sim (radio groups). *)
  k_obs : Tock_obs.Ctx.t;
  kc : kcounters;
  h_sys : Tock_obs.Metrics.histogram array; (* by Syscall.class_index *)
  drivers : driver_slot Int_hashtbl.Int.t; (* by driver number *)
  mutable table : pentry array; (* index = pid: ids are dense and never reused *)
  mutable runnable : Process.t array;
      (* The scheduler's view of one decision, rebuilt in place by each
         loop iteration: the deliverable processes in ascending id
         order, in its first slots. One slot per process. *)
  mutable next_pid : int;
  mutable ram_next : int; (* bump pointer into the RAM pool *)
  mutable fault_hook : Process.t -> Process.fault_reason -> unit;
  mutable trace_hook :
    (Process.t -> Syscall.call -> Syscall.ret option -> unit) option;
  mutable k_grants : registered list;
      (* sorted by name: freeze records which grants each process
         holds; thaw preallocates them so grant-region layout matches
         the witness. *)
  mutable k_freezers : (string * freezer) list; (* sorted by name *)
  mutable k_clock_held : bool;
      (* set only while [thaw] runs the resume prologues: [spend]
         charges nothing, so no frozen event can come due under them *)
}

let create ?config:(cfg = default_config ()) chip =
  let sim = chip.Tock_hw.Chip.sim in
  let reg = Tock_obs.Metrics.create () in
  let c name = Tock_obs.Metrics.counter reg ("kernel." ^ name) in
  let kc =
    {
      c_syscalls = c "syscalls";
      c_context_switches = c "context_switches";
      c_upcalls_delivered = c "upcalls_delivered";
      c_sleeps = c "sleeps";
      c_loop_iterations = c "loop_iterations";
      c_aliased_allows = c "aliased_allows";
      c_zero_len_allows = c "zero_len_allows";
      c_overlap_rejected = c "overlap_rejected";
      c_faults = c "faults";
      c_restarts = c "restarts";
      c_filtered_commands = c "filtered_commands";
    }
  in
  let h_sys =
    Array.map
      (fun nm -> Tock_obs.Metrics.histogram reg ("kernel.syscall_cycles." ^ nm))
      class_names
  in
  let t =
    {
      k_chip = chip;
      k_config = cfg;
      k_reg = reg;
      k_obs =
        {
          Tock_obs.Ctx.trace = Tock_hw.Sim.trace_events sim;
          metrics = reg;
          clock = (fun () -> Tock_hw.Sim.now sim);
        };
      kc;
      h_sys;
      drivers = Int_hashtbl.Int.create 16;
      table = [||];
      runnable = [||];
      next_pid = 0;
      ram_next = ram_base;
      fault_hook = (fun _ _ -> ());
      trace_hook = None;
      k_grants = [];
      k_freezers = [];
      k_clock_held = false;
    }
  in
  (* Per-process gauges, published when a snapshot is taken — never from
     the main loop. *)
  Tock_obs.Metrics.on_snapshot reg (fun () ->
      Array.iter
        (fun pe ->
          let p = pe.proc in
          Tock_obs.Metrics.set pe.g_syscalls (Process.syscall_count p);
          Tock_obs.Metrics.set pe.g_grant_enters (Process.grant_enter_count p);
          Tock_obs.Metrics.set pe.g_grant_bytes (Process.grant_bytes_used p);
          Tock_obs.Metrics.set pe.g_restarts (Process.restart_count p);
          Tock_obs.Metrics.set pe.g_mpu_scans (Process.mpu_scan_count p);
          Tock_obs.Metrics.set pe.g_upcalls_dropped (Process.upcalls_dropped p))
        t.table);
  t

let sim t = t.k_chip.Tock_hw.Chip.sim

let config t = t.k_config

let metrics t = t.k_reg

let metrics_snapshot t = Tock_obs.Metrics.snapshot t.k_reg

let obs t = t.k_obs

(* Compatibility view over the registry: a fresh record per call, read
   straight from the counters. *)
let stats t =
  let v c = Tock_obs.Metrics.counter_value c in
  {
    syscalls = v t.kc.c_syscalls;
    context_switches = v t.kc.c_context_switches;
    upcalls_delivered = v t.kc.c_upcalls_delivered;
    sleeps = v t.kc.c_sleeps;
    loop_iterations = v t.kc.c_loop_iterations;
    aliased_allows = v t.kc.c_aliased_allows;
    zero_len_allows = v t.kc.c_zero_len_allows;
    overlap_rejected = v t.kc.c_overlap_rejected;
    faults = v t.kc.c_faults;
    restarts = v t.kc.c_restarts;
    filtered_commands = v t.kc.c_filtered_commands;
  }

let set_fault_hook t fn = t.fault_hook <- fn

let set_syscall_trace t fn = t.trace_hook <- fn

let timing t = t.k_chip.Tock_hw.Chip.timing

(* Inlined like [Sim.spend] behind it: every syscall and slice charges
   through here. *)
let[@inline] spend t n =
  if not t.k_clock_held then Tock_hw.Sim.spend (sim t) n

(* ---- drivers ---- *)

let register_driver t (d : Driver.t) =
  let prefix = "driver." ^ d.Driver.driver_name ^ "." in
  let series stat = Tock_obs.Metrics.counter t.k_reg (prefix ^ stat) in
  (* Registration order fixes the registry layout: cycles, then
     commands. *)
  let d_cycles = series "cycles" in
  let d_commands = series "commands" in
  Int_hashtbl.Int.replace t.drivers d.Driver.driver_num
    { drv = d; d_commands; d_cycles }

let register_grant t g =
  let name = Grant.name g in
  t.k_grants <-
    List.sort
      (fun a b -> compare (grant_name a) (grant_name b))
      (Registered g :: List.filter (fun r -> grant_name r <> name) t.k_grants)

let kernel_sections = Witness.sections ~components:[]

let register_freezer t ~name ~phase ~save ~load =
  if List.mem name kernel_sections then
    invalid_arg ("Kernel.register_freezer: reserved section name " ^ name);
  t.k_freezers <-
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      ((name, { fz_phase = phase; fz_save = save; fz_load = load })
      :: List.filter (fun (n, _) -> n <> name) t.k_freezers)

(* ---- process table ---- *)

let entry t pid =
  if pid >= 0 && pid < Array.length t.table then Some t.table.(pid) else None

let processes t = Array.to_list (Array.map (fun pe -> pe.proc) t.table)

let find_process t pid = Option.map (fun pe -> pe.proc) (entry t pid)

let find_process_by_name t nm =
  let n = Array.length t.table in
  let rec go i =
    if i >= n then None
    else if Process.name t.table.(i).proc = nm then Some t.table.(i).proc
    else go (i + 1)
  in
  go 0

let grant_reserve = 640
(* Kernel-owned suffix reserved per process for grant growth before the
   MPU must be reconfigured; grants may grow past it down to the app
   break. *)

let create_process t ~cap:_ ~name ~flash_base ~flash ~min_ram ?permissions
    ?storage ?(tbf_flags = Tock_tbf.Tbf.flag_enabled) ~factory () =
  if Array.length t.table >= t.k_config.max_processes then Error Error.NOMEM
  else begin
    let mpu = t.k_chip.Tock_hw.Chip.mpu in
    let mpu_config = Tock_hw.Mpu.new_config mpu in
    let pool_end = ram_base + ram_size in
    match
      Tock_hw.Mpu.allocate_app_memory_region mpu mpu_config
        ~unallocated_start:t.ram_next
        ~unallocated_size:(pool_end - t.ram_next)
        ~min_memory_size:(min_ram + grant_reserve)
        ~initial_app_memory_size:min_ram
        ~initial_kernel_memory_size:grant_reserve
    with
    | None -> Error Error.NOMEM
    | Some (block_start, block_size) ->
        t.ram_next <- block_start + block_size;
        let pid = t.next_pid in
        t.next_pid <- pid + 1;
        let proc =
          Process.create ~id:pid ~name ~ram_base:block_start
            ~ram_size:block_size
            ~initial_app_break:(block_start + min_ram)
            ~flash_base ~flash ~mpu ~mpu_config ~permissions ~storage
            ~tbf_flags
        in
        Process.set_execution proc (factory proc);
        let enabled = tbf_flags land Tock_tbf.Tbf.flag_enabled <> 0 in
        Process.set_state proc (if enabled then Process.Runnable else Process.Unstarted);
        Process.set_obs proc t.k_obs;
        let series = "process." ^ name ^ "." in
        let g stat = Tock_obs.Metrics.gauge t.k_reg (series ^ stat) in
        let ret_scratch = Array.make 4 0 and upcall_frame = Array.make 5 0 in
        let resume_ret = Process.Rsyscall_ret ret_scratch in
        let resume_upcall = Process.Rupcall upcall_frame in
        let pe =
          {
            proc;
            factory;
            pending_resume = Some Process.Rstart;
            ret_scratch;
            resume_ret;
            stash_ret = Some resume_ret;
            upcall_frame;
            resume_upcall;
            stash_upcall = Some resume_upcall;
            upcall_driver = -1;
            c_cycles = Tock_obs.Metrics.counter t.k_reg (series ^ "cycles");
            g_syscalls = g "syscalls";
            g_grant_enters = g "grant_enters";
            g_grant_bytes = g "grant_bytes";
            g_restarts = g "restarts";
            g_mpu_scans = g "mpu_scans";
            g_upcalls_dropped = g "upcalls_dropped";
          }
        in
        t.table <- Array.append t.table [| pe |];
        t.runnable <- Array.append t.runnable [| proc |];
        Ok proc
  end

let do_restart t pe =
  let proc = pe.proc in
  Tock_obs.Metrics.incr t.kc.c_restarts;
  Process.note_restart proc;
  Process.destroy_execution proc;
  Process.reset_syscall_state proc;
  Process.set_execution proc (pe.factory proc);
  pe.pending_resume <- Some Process.Rstart;
  Process.set_state proc Process.Runnable

let start_process t ~cap:_ pid =
  match entry t pid with
  | None -> Error Error.NODEVICE
  | Some pe -> (
      match Process.state pe.proc with
      | Process.Unstarted ->
          Process.set_state pe.proc Process.Runnable;
          Ok ()
      | Process.Stopped prior ->
          Process.set_state pe.proc prior;
          Ok ()
      | _ -> Error Error.ALREADY)

let stop_process t ~cap:_ pid =
  match entry t pid with
  | None -> Error Error.NODEVICE
  | Some pe -> (
      match Process.state pe.proc with
      | Process.Stopped _ -> Error Error.ALREADY
      | Process.Terminated _ | Process.Faulted _ -> Error Error.FAIL
      | s ->
          Process.set_state pe.proc (Process.Stopped s);
          Ok ())

let restart_process t ~cap:_ pid =
  match entry t pid with
  | None -> Error Error.NODEVICE
  | Some pe ->
      do_restart t pe;
      Ok ()

let terminate_process t ~cap:_ pid =
  match entry t pid with
  | None -> Error Error.NODEVICE
  | Some pe ->
      Process.destroy_execution pe.proc;
      Process.set_state pe.proc (Process.Terminated { code = -1 });
      Ok ()

(* ---- capsule-facing resources ----

   Every capsule call names its process by id, so these index the table
   directly: [entry]'s option would be an allocation per call. *)

let live t pid = pid >= 0 && pid < Array.length t.table

let schedule_upcall t pid ~driver ~subscribe_num ~args =
  if not (live t pid) then false
  else begin
    spend t (timing t).Tock_hw.Chip.upcall_push;
    Process.enqueue_upcall t.table.(pid).proc ~driver ~subscribe_num ~args
  end

let empty_subslice = Subslice.of_bytes Bytes.empty

(* Zero-copy, zero-alloc fast path: the window was materialized (and the
   range validated) at allow time, so the hit path is a table lookup
   plus a window reset — the reset restores the *base* window, i.e. the
   allowed range, so a previous borrower's narrowing never leaks and the
   capsule can never widen past what the process allowed (§5.1). *)
let with_allow t pid ~kind ~driver ~allow_num f =
  if not (live t pid) then Error Error.NODEVICE
  else
    let e = Process.allow_get t.table.(pid).proc ~kind ~driver ~allow_num in
    match e.Process.a_window with
    | None -> Ok (f empty_subslice)
    | Some w ->
        Subslice.reset w;
        Ok (f w)

let with_allow_rw t pid ~driver ~allow_num f =
  with_allow t pid ~kind:`Rw ~driver ~allow_num f

let with_allow_ro t pid ~driver ~allow_num f =
  with_allow t pid ~kind:`Ro ~driver ~allow_num f

(* For capsules that hold the buffer across a split-phase operation
   (console tx, net tx, digest feed): a clone shares the bytes and the
   base bound but narrows independently, so in-flight I/O and the
   syscall-path borrows cannot disturb each other's windows. *)
let allow_window t pid ~kind ~driver ~allow_num =
  if not (live t pid) then None
  else
    let e = Process.allow_get t.table.(pid).proc ~kind ~driver ~allow_num in
    match e.Process.a_window with
    | None -> None
    | Some w ->
        let c = Subslice.clone w in
        Subslice.reset c;
        Some c

let allow_size t pid ~kind ~driver ~allow_num =
  if not (live t pid) then 0
  else
    (Process.allow_get t.table.(pid).proc ~kind ~driver ~allow_num).Process.a_len

let process_ids t =
  Array.to_list (Array.map (fun pe -> Process.id pe.proc) t.table)

let process_state_of t pid = Option.map (fun pe -> Process.state pe.proc) (entry t pid)

let process_name_of t pid = Option.map (fun pe -> Process.name pe.proc) (entry t pid)

(* ---- syscall dispatch ----

   The round trip allocates nothing of its own: the app writes its call
   into its reusable 5-register frame and traps; [dispatch] reads r0-r3
   straight out of that frame, writes the return into the process's
   [ret_scratch], and the process is resumed with its preallocated
   [Rsyscall_ret ret_scratch]. No [Syscall.call] or [Syscall.ret] is
   built unless a trace hook asks for one. The frame stays valid until
   the process is resumed: the app is suspended in the trap. *)

(* What a dispatched call leaves for the resume. [Returned]: the return
   registers are in [ret_scratch]; [Deliver]: the upcall is in
   [upcall_frame]. *)
type outcome = Returned | Deliver | Blocked | Dead

let validate_allow t proc ~kind ~addr ~len =
  if len = 0 then begin
    (* Zero-length revocation/initial allow: any address is accepted but a
       null-pointer slice would be a Rust niche violation — count the
       dynamic fix-up (paper §5.1.2). *)
    if addr <> 0 then Tock_obs.Metrics.incr t.kc.c_zero_len_allows;
    Ok ()
  end
  else begin
    (* Subtract from the ends: [addr + len] could wrap past [max_int]. *)
    let in_app_ram =
      addr >= Process.ram_base proc && len <= Process.app_break proc - addr
    in
    let in_flash =
      addr >= Process.flash_base proc && len <= Process.flash_end proc - addr
    in
    let region_ok = match kind with `Rw -> in_app_ram | `Ro -> in_app_ram || in_flash in
    if not region_ok then Error Error.INVAL
    else if Process.allow_overlaps proc ~kind ~addr ~len then (
      match t.k_config.aliasing_policy with
      | Reject_overlap ->
          Tock_obs.Metrics.incr t.kc.c_overlap_rejected;
          Error Error.INVAL
      | Cell_semantics ->
          Tock_obs.Metrics.incr t.kc.c_aliased_allows;
          Ok ())
    else Ok ()
  end

let handle_allow t proc ret ~kind ~driver ~allow_num ~addr ~len =
  (match Int_hashtbl.Int.find t.drivers driver with
  | exception Not_found ->
      Syscall.set_failure_u32_u32 ret Error.NODEVICE addr len
  | _ -> (
      match validate_allow t proc ~kind ~addr ~len with
      | Error e -> Syscall.set_failure_u32_u32 ret e addr len
      | Ok () ->
          (* Materialize the window at the allow boundary, or reuse the
             one this key last held over the same range; every later
             capsule access reuses it without translation. *)
          let entry =
            Process.allow_entry proc ~kind ~driver ~allow_num ~addr ~len
          in
          if entry.Process.a_len < 0 then
            Syscall.set_failure_u32_u32 ret Error.INVAL addr len
          else
            let old = Process.allow_swap proc ~kind ~driver ~allow_num entry in
            Syscall.set_success_u32_u32 ret old.Process.a_addr
              old.Process.a_len));
  Returned

let handle_memop proc ret ~op ~arg =
  let open Syscall in
  (if op = memop_brk then
     match Process.brk proc arg with
     | Ok () -> set_success ret
     | Error e -> set_failure ret e
   else if op = memop_sbrk then
     match Process.sbrk proc arg with
     | Ok old -> set_success_u32 ret old
     | Error e -> set_failure ret e
   else if op = memop_flash_start then set_success_u32 ret (Process.flash_base proc)
   else if op = memop_flash_end then set_success_u32 ret (Process.flash_end proc)
   else if op = memop_ram_start then set_success_u32 ret (Process.ram_base proc)
   else if op = memop_ram_end then set_success_u32 ret (Process.ram_end proc)
   else set_failure ret Error.NOSUPPORT);
  Returned

(* Move the oldest queued upcall into [upcall_frame]; false if none. *)
let pop_upcall pe =
  let driver = Process.pop_upcall pe.proc pe.upcall_frame in
  pe.upcall_driver <- driver;
  driver >= 0

(* Count and trace the upcall [pop_upcall] left in [upcall_frame]; the
   process resumes with [resume_upcall]. *)
let note_delivery t pe =
  Tock_obs.Metrics.incr t.kc.c_upcalls_delivered;
  let tr = Tock_hw.Sim.trace_events (sim t) in
  if Tock_obs.Trace.on tr then
    Tock_obs.Trace.emit tr
      ~ts:(Tock_hw.Sim.now (sim t))
      ~tid:(Process.id pe.proc) Tock_obs.Trace.Upcall Tock_obs.Trace.Instant
      ~arg:pe.upcall_driver ~text:""

(* A directly awaited completion (yield-wait-for, blocking command)
   returns its upcall arguments in registers: pluck it into
   [upcall_frame] and copy them to [ret_scratch]. False if it has not
   come. *)
let take_awaited pe ~driver ~subscribe_num =
  let f = pe.upcall_frame in
  if not (Process.pop_upcall_for pe.proc ~driver ~subscribe_num f) then false
  else begin
    Syscall.set_success_u32_u32_u32 pe.ret_scratch f.(2) f.(3) f.(4);
    true
  end

(* Run a driver command, attributing its wall cycles and call count to
   the driver's registry series. *)
let timed_command t slot proc ~command_num ~arg1 ~arg2 =
  let t0 = Tock_hw.Sim.now (sim t) in
  let r = slot.drv.Driver.command proc ~command_num ~arg1 ~arg2 in
  Tock_obs.Metrics.incr slot.d_commands;
  Tock_obs.Metrics.add slot.d_cycles (Tock_hw.Sim.now (sim t) - t0);
  r

(* False, with NODEVICE in [ret], if the process's TBF permissions
   filter the command. *)
let permitted t proc ret ~driver ~command_num =
  Process.command_allowed proc ~driver ~command_num
  || begin
       Tock_obs.Metrics.incr t.kc.c_filtered_commands;
       Syscall.set_failure ret Error.NODEVICE;
       false
     end

(* Dispatch a frame [Syscall.verdict] accepted as class [idx], reading
   r0-r3 in place. *)
let dispatch t pe idx regs =
  let proc = pe.proc and ret = pe.ret_scratch in
  let r0 = Array.unsafe_get regs 1 and r1 = Array.unsafe_get regs 2 in
  let r2 = Array.unsafe_get regs 3 and r3 = Array.unsafe_get regs 4 in
  match idx with
  | 0 (* yield *) -> (
      match r0 with
      | 0 (* no-wait *) ->
          if pop_upcall pe then Deliver
          else begin
            Syscall.set_success_u32 ret 0;
            Returned
          end
      | 1 (* wait *) ->
          if pop_upcall pe then Deliver
          else begin
            Process.set_state proc Process.Yielded;
            Blocked
          end
      | _ (* wait-for *) ->
          if take_awaited pe ~driver:r1 ~subscribe_num:r2 then begin
            Tock_obs.Metrics.incr t.kc.c_upcalls_delivered;
            Returned
          end
          else begin
            Process.set_state proc
              (Process.Yielded_for { driver = r1; subscribe_num = r2 });
            Blocked
          end)
  | 1 (* subscribe: driver, subscribe_num, upcall_fn, appdata *) ->
      (if not (Int_hashtbl.Int.mem t.drivers r0) then
         Syscall.set_failure_u32_u32 ret Error.NODEVICE r2 r3
       else
         let up =
           if r2 = 0 && r3 = 0 then Process.null_upcall
           else { Process.fnptr = r2; appdata = r3 }
         in
         let old = Process.subscribe_swap proc ~driver:r0 ~subscribe_num:r1 up in
         Syscall.set_success_u32_u32 ret old.Process.fnptr old.Process.appdata);
      Returned
  | 2 (* command: driver, command_num, arg1, arg2 *) ->
      (match Int_hashtbl.Int.find t.drivers r0 with
      | exception Not_found -> Syscall.set_failure ret Error.NODEVICE
      | slot ->
          if permitted t proc ret ~driver:r0 ~command_num:r1 then
            Syscall.encode_ret_into
              (timed_command t slot proc ~command_num:r1 ~arg1:r2 ~arg2:r3)
              ret);
      Returned
  | 3 -> handle_allow t proc ret ~kind:`Rw ~driver:r0 ~allow_num:r1 ~addr:r2 ~len:r3
  | 4 -> handle_allow t proc ret ~kind:`Ro ~driver:r0 ~allow_num:r1 ~addr:r2 ~len:r3
  | 5 -> handle_memop proc ret ~op:r0 ~arg:r1
  | 6 (* exit: variant, code *) -> (
      match r0 with
      | 0 ->
          Process.destroy_execution proc;
          Process.set_state proc (Process.Terminated { code = r1 });
          Dead
      | 1 ->
          do_restart t pe;
          Dead
      | _ ->
          Syscall.set_failure ret Error.NOSUPPORT;
          Returned)
  | _ (* blocking command: driver, command_num, arg1, packed arg2/slot *) -> (
      if not t.k_config.blocking_commands then begin
        Syscall.set_failure ret Error.NOSUPPORT;
        Returned
      end
      else
        match Int_hashtbl.Int.find t.drivers r0 with
        | exception Not_found ->
            Syscall.set_failure ret Error.NODEVICE;
            Returned
        | slot -> (
            if not (permitted t proc ret ~driver:r0 ~command_num:r1) then
              Returned
            else
              let subscribe_num = Syscall.blocking_subscribe_num r3 in
              let r =
                timed_command t slot proc ~command_num:r1 ~arg1:r2
                  ~arg2:(Syscall.blocking_arg2 r3)
              in
              if not (Syscall.ret_is_success r) then begin
                Syscall.encode_ret_into r ret;
                Returned
              end
              else if take_awaited pe ~driver:r0 ~subscribe_num then Returned
              else begin
                Process.set_state proc
                  (Process.Blocked_command { driver = r0; subscribe_num });
                Blocked
              end))

let handle_fault t pe reason =
  let proc = pe.proc in
  Tock_obs.Metrics.incr t.kc.c_faults;
  let tr = Tock_hw.Sim.trace_events (sim t) in
  if Tock_obs.Trace.on tr then
    Tock_obs.Trace.emit tr
      ~ts:(Tock_hw.Sim.now (sim t))
      ~tid:(Process.id proc) Tock_obs.Trace.Fault Tock_obs.Trace.Instant
      ~arg:(Process.id proc)
      ~text:(Process.name proc ^ ": " ^ Process.describe_fault reason);
  t.fault_hook proc reason;
  match t.k_config.fault_policy with
  | Panic_on_fault ->
      raise
        (Panic
           (Printf.sprintf "process %s faulted: %s" (Process.name proc)
              (Process.describe_fault reason)))
  | Restart_on_fault max ->
      if Process.restart_count proc < max then do_restart t pe
      else begin
        Process.destroy_execution proc;
        Process.set_state proc (Process.Faulted reason)
      end
  | Stop_on_fault ->
      Process.destroy_execution proc;
      Process.set_state proc (Process.Faulted reason)

(* ---- the main loop ---- *)

let deliverable pe =
  match Process.state pe.proc with
  | Process.Runnable -> true
  | Process.Yielded -> Process.has_pending_upcalls pe.proc
  | Process.Yielded_for { driver; subscribe_num }
  | Process.Blocked_command { driver; subscribe_num } ->
      Process.has_upcall_for pe.proc ~driver ~subscribe_num
  | Process.Unstarted | Process.Faulted _ | Process.Terminated _
  | Process.Stopped _ ->
      false

let has_work t =
  Tock_hw.Irq.has_pending t.k_chip.Tock_hw.Chip.irq
  || Array.exists deliverable t.table

let charge t proc usage = t.k_config.scheduler.Scheduler.charge proc usage

(* Resume [pe] with [arg] and keep it running through its syscalls until
   it blocks, faults or spends its [remaining] fuel. Top-level and
   tail-recursive, so a slice builds no closure. *)
let rec run_from t pe arg remaining =
  let proc = pe.proc in
  let trap = Process.run proc ~fuel:remaining arg in
  let used = Process.cycles_used proc in
  spend t used;
  Tock_obs.Metrics.add pe.c_cycles used;
  let remaining = remaining - used in
  match trap with
  | Process.Trap_timeslice_expired ->
      pe.pending_resume <- Some Process.Rcontinue;
      charge t proc Scheduler.Used_full_slice
  | Process.Trap_fault reason ->
      handle_fault t pe reason;
      charge t proc Scheduler.Yielded_early
  | Process.Trap_syscall regs -> trap_syscall t pe regs remaining

and trap_syscall t pe regs remaining =
  let proc = pe.proc in
  let pid = Process.id proc in
  let tm = timing t in
  let tr = Tock_hw.Sim.trace_events (sim t) in
  Tock_obs.Metrics.incr t.kc.c_syscalls;
  let sys_t0 = Tock_hw.Sim.now (sim t) in
  spend t tm.Tock_hw.Chip.syscall_overhead;
  let remaining = remaining - tm.Tock_hw.Chip.syscall_overhead in
  (* Malformed frames take no per-class count; unknown classes do. *)
  if Array.length regs = Syscall.registers then
    Process.note_syscall proc ~class_num:(Array.unsafe_get regs 0);
  let idx = Syscall.verdict regs in
  if idx < 0 then begin
    Syscall.set_failure pe.ret_scratch
      (if idx = Syscall.verdict_inval then Error.INVAL else Error.NOSUPPORT);
    continue_or_stash t pe remaining
  end
  else begin
    if Tock_obs.Trace.on tr then
      Tock_obs.Trace.emit tr ~ts:sys_t0 ~tid:pid Tock_obs.Trace.Syscall
        Tock_obs.Trace.Begin ~arg:idx ~text:class_names.(idx);
    (* A trace hook sees the call decoded before dispatch, while the
       frame is still the trapped one. *)
    let traced =
      match t.trace_hook with
      | None -> None
      | Some _ -> Result.to_option (Syscall.decode_call regs)
    in
    let outcome = dispatch t pe idx regs in
    (match (t.trace_hook, traced) with
    | Some trace, Some call ->
        trace proc call
          (match outcome with
          | Returned -> Result.to_option (Syscall.decode_ret pe.ret_scratch)
          | Deliver | Blocked | Dead -> None)
    | _ -> ());
    (* Latency from trap entry to dispatch completion: includes the
       architectural syscall overhead and any driver work. *)
    let sys_end = Tock_hw.Sim.now (sim t) in
    Tock_obs.Metrics.observe t.h_sys.(idx) (sys_end - sys_t0);
    Tock_obs.Metrics.add pe.c_cycles (sys_end - sys_t0);
    if Tock_obs.Trace.on tr then
      Tock_obs.Trace.emit tr ~ts:sys_end ~tid:pid Tock_obs.Trace.Syscall
        Tock_obs.Trace.End ~arg:idx ~text:class_names.(idx);
    match outcome with
    | Returned -> continue_or_stash t pe remaining
    | Deliver ->
        note_delivery t pe;
        if remaining > 0 then run_from t pe pe.resume_upcall remaining
        else begin
          pe.pending_resume <- pe.stash_upcall;
          charge t proc Scheduler.Used_full_slice
        end
    | Blocked | Dead -> charge t proc Scheduler.Yielded_early
  end

and continue_or_stash t pe remaining =
  if remaining > 0 then run_from t pe pe.resume_ret remaining
  else begin
    pe.pending_resume <- pe.stash_ret;
    charge t pe.proc Scheduler.Used_full_slice
  end

let run_slice t pe timeslice =
  let proc = pe.proc in
  let pid = Process.id proc in
  let tm = timing t in
  let tr = Tock_hw.Sim.trace_events (sim t) in
  Tock_obs.Metrics.incr t.kc.c_context_switches;
  let slice_t0 = Tock_hw.Sim.now (sim t) in
  if Tock_obs.Trace.on tr then
    Tock_obs.Trace.emit tr ~ts:slice_t0 ~tid:pid Tock_obs.Trace.Schedule
      Tock_obs.Trace.Begin ~arg:pid ~text:(Process.name proc);
  spend t tm.Tock_hw.Chip.context_switch;
  (* Initial resume argument for this slice. *)
  let initial_arg =
    match Process.state proc with
    | Process.Runnable ->
        let a = Option.value pe.pending_resume ~default:Process.Rcontinue in
        pe.pending_resume <- None;
        a
    | Process.Yielded ->
        if pop_upcall pe then begin
          note_delivery t pe;
          pe.resume_upcall
        end
        else Process.Rcontinue (* raced away; treat as spurious wake *)
    | Process.Yielded_for { driver; subscribe_num }
    | Process.Blocked_command { driver; subscribe_num } ->
        if take_awaited pe ~driver ~subscribe_num then begin
          Tock_obs.Metrics.incr t.kc.c_upcalls_delivered;
          pe.resume_ret
        end
        else Process.Rcontinue
    | _ -> Process.Rcontinue
  in
  Process.set_state proc Process.Runnable;
  (* A [None] timeslice means "run until it blocks" (cooperative). The
     slice is still chunked so the main loop regains control at a bounded
     rate (deadline checks, multi-board stepping); the cooperative
     scheduler is sticky, so no other process runs in between. *)
  let budget = match timeslice with Some n -> n | None -> 200_000 in
  run_from t pe initial_arg budget;
  if Tock_obs.Trace.on tr then
    Tock_obs.Trace.emit tr
      ~ts:(Tock_hw.Sim.now (sim t))
      ~tid:pid Tock_obs.Trace.Schedule Tock_obs.Trace.End ~arg:pid
      ~text:(Process.name proc)

(* One loop iteration minus the idle policy: interrupts, then one
   process slice. [`Idle] means nothing ran — the caller decides
   whether to deep-sleep to the next event ({!step}) or hand the wake
   deadline to an outer cross-board scheduler ({!run_to_deadline}). The
   decision neither conses nor sorts: the deliverable processes go into
   [t.runnable] in pid order, and the scheduler answers an index. *)
let step_work t ~cap:_ =
  let tm = timing t in
  Tock_obs.Metrics.incr t.kc.c_loop_iterations;
  spend t tm.Tock_hw.Chip.kernel_loop_overhead;
  let irq = t.k_chip.Tock_hw.Chip.irq in
  let worked = Tock_hw.Irq.has_pending irq in
  if worked then spend t (30 * Tock_hw.Irq.service irq);
  let runnable = t.runnable in
  let n = ref 0 in
  for i = 0 to Array.length t.table - 1 do
    let pe = t.table.(i) in
    if deliverable pe then begin
      runnable.(!n) <- pe.proc;
      incr n
    end
  done;
  let sched = t.k_config.scheduler in
  let i = sched.Scheduler.next runnable !n in
  if i >= 0 then begin
    let proc = runnable.(i) in
    run_slice t t.table.(Process.id proc) (sched.Scheduler.timeslice proc);
    `Worked
  end
  else if worked then `Worked
  else `Idle

(* Metered idle sleep to an absolute time: power-model the CPU down,
   fire any events due in the interval at their own deadlines, count and
   trace the span. Both the in-kernel idle path and the fleet
   scheduler's fast-forward go through here, so a board reaches the same
   state whether it slept event-to-event or was warped in one hop. *)
let sleep_to t ~cap:_ time =
  if time <= Tock_hw.Sim.now (sim t) then
    (* Degenerate wake: nothing to sleep through, but keep the
       fire-everything-due contract of the old advance-to-next-event
       idle path. *)
    ignore (Tock_hw.Sim.run_due_events (sim t))
  else begin
    let sleep_t0 = Tock_hw.Sim.now (sim t) in
    Tock_hw.Chip.cpu_set_active t.k_chip false;
    Tock_hw.Sim.sleep_until (sim t) time;
    Tock_hw.Chip.cpu_set_active t.k_chip true;
    Tock_obs.Metrics.incr t.kc.c_sleeps;
    let tr = Tock_hw.Sim.trace_events (sim t) in
    if Tock_obs.Trace.on tr then begin
      (* The span is emitted after the fact (we only know it was a
         sleep once an event fired); the exporter's stable sort
         re-orders it before the events that fired at wake-up. *)
      Tock_obs.Trace.emit tr ~ts:sleep_t0 ~tid:(-1) Tock_obs.Trace.Sleep
        Tock_obs.Trace.Begin ~arg:0 ~text:"idle";
      Tock_obs.Trace.emit tr
        ~ts:(Tock_hw.Sim.now (sim t))
        ~tid:(-1) Tock_obs.Trace.Sleep Tock_obs.Trace.End ~arg:0 ~text:"idle"
    end
  end

let step t ~cap =
  match step_work t ~cap with
  | `Worked -> `Worked
  | `Idle ->
      (* Nothing to do: deep sleep until the next hardware event. *)
      let d = Tock_hw.Sim.next_deadline (sim t) in
      if d = max_int then `Stalled
      else begin
        sleep_to t ~cap d;
        `Slept
      end

let run_to_deadline t ~cap ~deadline =
  let rec loop () =
    if Tock_hw.Sim.now (sim t) >= deadline then `Budget
    else
      match step_work t ~cap with
      | `Worked -> loop ()
      | `Idle ->
          let d = Tock_hw.Sim.next_deadline (sim t) in
          if d = max_int then `Stalled
          else if d >= deadline then `Asleep d
          else begin
            sleep_to t ~cap d;
            loop ()
          end
  in
  loop ()

let run_until t ~cap ?(max_cycles = 2_000_000_000) pred =
  let deadline = Tock_hw.Sim.now (sim t) + max_cycles in
  let rec loop () =
    if pred () then true
    else if Tock_hw.Sim.now (sim t) >= deadline then false
    else
      match step t ~cap with
      | `Worked | `Slept -> loop ()
      | `Stalled -> pred ()
  in
  loop ()

let run_cycles t ~cap n =
  let deadline = Tock_hw.Sim.now (sim t) + n in
  ignore (run_until t ~cap ~max_cycles:n (fun () -> Tock_hw.Sim.now (sim t) >= deadline))

(* ---- board-state snapshot (park/resume) ----

   Process executions are effect continuations — they cannot be
   serialized. A parked board is captured as a compact byte *witness* of
   everything observable about it ([Witness] holds the frame layout;
   each process writes its own record, [Process.add_image]).

   The one way back from a witness is [thaw] (direct materialization):
   rebuild the board, let each resumable app's factory fast-forward
   through its checkpoint (re-entering the recorded sleep so the
   continuation suspends in the frozen shape), then patch every other
   observable back from the witness. O(state), independent of how long
   the board ran. Only some freeze points can be rebuilt that way —
   [Process.thawable] names them, and [resumable] asks it of a live
   board before anyone parks it. [thaw] returns [Error] whenever
   anything fails to line up (a freeze point [Process.thawable]
   rejects, upcall ids that cannot be remapped, registry layout drift,
   corrupt bytes). *)

let freeze ?buf t =
  let s = sim t in
  let board b = Witness.add_board b s ~next_pid:t.next_pid ~ram_next:t.ram_next in
  let procs b =
    Tock_obs.Frame.add_int b (Array.length t.table);
    Array.iter
      (fun pe ->
        let p = pe.proc in
        let held (Registered g) =
          if Grant.is_allocated g p then Some (Grant.name g) else None
        in
        Process.add_image b p ~resume:pe.pending_resume
          ~grants:(List.filter_map held t.k_grants))
      t.table
  in
  let registry reg b = Witness.add_registry b reg in
  Tock_obs.Frame.encode ?buf Witness.magic
    ((Witness.board, board) :: (Witness.procs, procs)
    :: List.fold_right
         (fun (name, fz) l -> (name, fz.fz_save) :: l)
         t.k_freezers
         [ (Witness.kernel_metrics, registry t.k_reg);
           (Witness.sim_metrics, registry (Tock_hw.Sim.metrics s)) ])

(* ---- direct materialization (thaw) ---- *)

(* A board with kernel work pending (an interrupt or a deliverable
   upcall) is between two steps of its main loop: its next
   step runs that work, while a thawed board would sleep through it. *)
let resumable t =
  (not (has_work t)) && Array.for_all (fun pe -> Process.thawable pe.proc) t.table

exception Thaw_failed of string

let thaw t ~cap witness =
  match Witness.decode ~components:(List.map fst t.k_freezers) witness with
  | Error e -> Error ("thaw: " ^ e)
  | Ok wt -> (
      let open Witness in
      try
        let s = sim t in
        let fail fmt = Printf.ksprintf (fun m -> raise (Thaw_failed m)) fmt in
        let check = function Ok v -> v | Error e -> raise (Thaw_failed e) in
        let section name load = check (Tock_obs.Frame.read wt.w_frame name load) in
        let images = section procs Process.read_images in
        let nprocs = List.length images in
        if Array.length t.table <> nprocs then
          fail "board has %d processes, witness %d" (Array.length t.table)
            nprocs;
        if t.next_pid <> wt.w_next_pid || t.ram_next <> wt.w_ram_next then
          fail "process-table layout differs from witness";
        let pairs =
          List.mapi
            (fun i img ->
              let pe = t.table.(i) in
              let name = Process.image_name img in
              if not (String.equal (Process.name pe.proc) name) then
                fail "process %d is %s, witness has %s" i
                  (Process.name pe.proc) name;
              (pe, img))
            images
        in
        let load_phase phase =
          List.iter
            (fun (name, fz) -> if fz.fz_phase = phase then section name fz.fz_load)
            t.k_freezers
        in
        (* Phase 1: process dispositions and grant layout. Every
           process must sit at a freeze point [Process.thawable]
           accepts; a live one is then [Yielded] in its checkpoint
           sleep, and dead ones lose their execution now so the
           prologue pass never runs them. Grants are preallocated in
           recorded order so kernel breaks land where the witness says
           — the [`Pre] loads run first because the alarm section's
           ordered allocation also installs the resume alarms. *)
        load_phase `Pre;
        List.iter
          (fun (pe, img) ->
            let p = pe.proc in
            check (Process.thaw_begin p img);
            List.iter
              (fun gname ->
                match
                  List.find_opt (fun r -> String.equal (grant_name r) gname)
                    t.k_grants
                with
                | None -> fail "grant %S not registered on this board" gname
                | Some (Registered g) ->
                    if not (Grant.preallocate g p) then
                      fail "process %s: grant %S preallocation failed"
                        (Process.name p) gname)
              (Process.image_grants img))
          pairs;
        (* Phase 2: warp to the frozen clock, then run the resume
           prologues to quiescence with the clock held. Warping first
           matters: alarm re-arming math ([expired = now - reference >=
           dt], wrapping) must see the frozen [now], or an unexpired
           frozen deadline could look already-expired. The hw-timer
           invariant (compare events land at tick-aligned
           (reference+dt) regardless of when arming happens) then
           reproduces the frozen event schedule exactly. Holding the
           clock matters too: the prologues stand for no simulated
           time, and the cycles they would charge could otherwise
           carry the clock past a frozen event due just after the
           freeze, firing it under them. *)
        Tock_hw.Sim.warp s ~now:wt.w_now ~active_cycles:wt.w_active
          ~sleep_cycles:wt.w_sleep ~rng_state:wt.w_rng;
        let guard = ref 0 in
        let rec settle () =
          Stdlib.incr guard;
          if !guard > 1_000_000 then fail "thaw prologue did not settle";
          match step_work t ~cap with `Worked -> settle () | `Idle -> ()
        in
        t.k_clock_held <- true;
        Fun.protect ~finally:(fun () -> t.k_clock_held <- false) settle;
        (* The prologues may have drawn from the PRNG stream; put it
           back to the frozen instant. *)
        Tock_hw.Sim.warp s ~now:wt.w_now ~active_cycles:wt.w_active
          ~sleep_cycles:wt.w_sleep ~rng_state:wt.w_rng;
        (* Phase 3: patch every process back to the frozen image. *)
        List.iter
          (fun (pe, img) ->
            check (Process.thaw_patch pe.proc img);
            pe.pending_resume <- Process.image_resume img)
          pairs;
        load_phase `Post;
        (* Structural check: the prologues must have rebuilt the frozen
           event schedule exactly. *)
        let ev = Array.map fst (Tock_hw.Sim.event_times s) in
        Array.sort compare ev;
        if ev <> wt.w_events then
          fail "event schedule diverged (thawed %d events, witness %d)"
            (Array.length ev)
            (Array.length wt.w_events);
        (* Registries last, so the prologues' counter traffic vanishes
           under the frozen values. *)
        section kernel_metrics (restore_registry t.k_reg);
        section sim_metrics (restore_registry (Tock_hw.Sim.metrics s));
        Ok ()
      with Thaw_failed m -> Error ("thaw: " ^ m))
