(* The board-image codec behind [Kernel.freeze] and [Kernel.thaw]; the
   interface lists the sections and what each holds. *)

module Frame = Tock_obs.Frame
module Metrics = Tock_obs.Metrics

let magic = "TCKSNP03"
let board = "board"
let procs = "procs"
let kernel_metrics = "kernel.metrics"
let sim_metrics = "sim.metrics"

(* Fixed order, so equal boards freeze to equal bytes. *)
let sections ~components =
  (board :: procs :: components) @ [ kernel_metrics; sim_metrics ]

let add_i = Frame.add_int
let add_s = Frame.add_string

let rec encode_pstate b (s : Process.state) =
  match s with
  | Process.Unstarted -> add_i b 0
  | Process.Runnable -> add_i b 1
  | Process.Yielded -> add_i b 2
  | Process.Yielded_for { driver; subscribe_num } ->
      add_i b 3;
      add_i b driver;
      add_i b subscribe_num
  | Process.Blocked_command { driver; subscribe_num } ->
      add_i b 4;
      add_i b driver;
      add_i b subscribe_num
  | Process.Faulted r ->
      add_i b 5;
      add_s b
        (match r with
        | Process.Mpu_violation m -> "M" ^ m
        | Process.Bad_syscall m -> "B" ^ m
        | Process.App_panic m -> "A" ^ m)
  | Process.Terminated { code } ->
      add_i b 6;
      add_i b code
  | Process.Stopped prior ->
      add_i b 7;
      encode_pstate b prior

let encode_resume b (r : Process.resume_arg option) =
  match r with
  | None -> add_i b 0
  | Some Process.Rstart -> add_i b 1
  | Some Process.Rcontinue -> add_i b 2
  | Some (Process.Rsyscall_ret regs) ->
      add_i b 3;
      add_i b (Array.length regs);
      Array.iter (add_i b) regs
  | Some (Process.Rupcall { fnptr; appdata; arg0; arg1; arg2 }) ->
      add_i b 4;
      List.iter (add_i b) [ fnptr; appdata; arg0; arg1; arg2 ]

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

let add_process b p ~resume ~grants =
  add_s b (Process.name p);
  encode_pstate b (Process.state p);
  encode_resume b resume;
  List.iter (add_i b)
    [
      Process.restart_count p;
      Process.syscall_count p;
      Process.grant_enter_count p;
      Process.grant_bytes_used p;
      Process.app_break p;
      Process.kernel_break p;
      Process.upcalls_dropped p;
      Process.mpu_scan_count p;
      Process.checkpoint p;
      (if Process.at_sleep p then 1 else 0);
    ];
  (let gen, caches = Process.mpu_cache_state p in
   add_i b gen;
   List.iter (fun (g, lo, hi) -> add_i b g; add_i b lo; add_i b hi) caches);
  (match Process.bridge p with
  | None -> add_i b 0
  | Some br ->
      let r = br.Process.br_residue () in
      List.iter (add_i b) [ 1; r.Process.er_alloc_next; r.Process.er_next_fn ];
      Frame.add_list b
        (fun (tag, (addr, size)) -> add_s b tag; add_i b addr; add_i b size)
        r.Process.er_scratch);
  (* Per-class syscall counts, subscriptions and allows, each sorted
     by key for a canonical layout. *)
  let classes = ref [] and subs = ref [] and allows = ref [] in
  Process.iter_syscall_classes p (fun ~class_num ~count ->
      classes := (class_num, count) :: !classes);
  Frame.add_list b (fun (c, n) -> add_i b c; add_i b n) (List.sort compare !classes);
  (* Allocated grants by registered name (registry is name-sorted), so
     thaw can preallocate and reproduce kernel_break exactly. *)
  Frame.add_list b (add_s b) grants;
  Process.iter_subscriptions p (fun ~driver ~subscribe_num up ->
      subs := (driver, subscribe_num, up.Process.fnptr, up.Process.appdata) :: !subs);
  Frame.add_list b
    (fun (d, s, f, a) -> add_i b d; add_i b s; add_i b f; add_i b a)
    (List.sort compare !subs);
  Process.iter_allows p (fun ~kind ~driver ~allow_num e ->
      let k = match kind with `Rw -> 0 | `Ro -> 1 in
      allows := (k, driver, allow_num, e.Process.a_addr, e.Process.a_len) :: !allows);
  Frame.add_list b
    (fun (k, d, n, addr, len) ->
      add_i b k; add_i b d; add_i b n; add_i b addr; add_i b len)
    (List.sort compare !allows);
  (* Pending upcalls in delivery order — FIFO position is state. *)
  let pending = ref [] in
  Process.iter_pending_upcalls p (fun pu -> pending := pu :: !pending);
  Frame.add_list b
    (fun pu ->
      let a0, a1, a2 = pu.Process.pu_args and u = pu.Process.pu_upcall in
      List.iter (add_i b)
        [ pu.Process.pu_driver; pu.Process.pu_subscribe; u.Process.fnptr;
          u.Process.appdata; a0; a1; a2 ])
    (List.rev !pending);
  encode_ram b (Process.ram_bytes p)

let add_board b sim ~next_pid ~ram_next =
  add_i b (Tock_hw.Sim.now sim);
  add_i b (Tock_hw.Sim.active_cycles sim);
  add_i b (Tock_hw.Sim.sleep_cycles sim);
  Frame.add_int64 b (Tock_hw.Sim.rng_state sim);
  (* Deadlines only: queue sequence numbers are allocation order and
     never match across a rebuild, but same-deadline events on this
     codebase commute (see the Alarm_mux ordering witness). *)
  let ev = Array.map fst (Tock_hw.Sim.event_times sim) in
  Array.sort compare ev;
  add_i b (Array.length ev);
  Array.iter (add_i b) ev;
  add_i b next_pid;
  add_i b ram_next

let add_registry b reg =
  let p = Metrics.packed_of reg in
  Buffer.add_string b (Metrics.layout_digest reg);
  Buffer.add_string b p.Metrics.p_blob

type wproc = {
  wp_name : string;
  wp_state : Process.state;
  wp_resume : Process.resume_arg option;
  wp_restarts : int;
  wp_syscalls : int;
  wp_grant_enters : int;
  wp_grant_bytes : int;
  wp_app_break : int;
  wp_kernel_break : int;
  wp_upcall_drops : int;
  wp_mpu_scans : int;
  wp_ckpt : int;
  wp_at_sleep : bool;
  wp_mpu_gen : int;
  wp_mpu_caches : (int * int * int) list;
  wp_residue : Process.emu_residue option;
  wp_classes : (int * int) list;
  wp_grants : string list;
  wp_subs : (int * int * int * int) list;
  wp_allows : (int * int * int * int * int) list;
  wp_pending : Process.pending_upcall list;
  wp_ram_len : int;
  wp_ram_runs : (int * string) list;
}

type witness_image = {
  w_now : int;
  w_active : int;
  w_sleep : int;
  w_rng : int64;
  w_events : int array;
  w_next_pid : int;
  w_ram_next : int;
  w_procs : wproc list;
  w_frame : Frame.t; (* the freezer and registry sections, read at thaw *)
}

let rec decode_pstate r : Process.state =
  match Frame.int r with
  | 0 -> Process.Unstarted
  | 1 -> Process.Runnable
  | 2 -> Process.Yielded
  | 3 ->
      let driver = Frame.int r in
      Process.Yielded_for { driver; subscribe_num = Frame.int r }
  | 4 ->
      let driver = Frame.int r in
      Process.Blocked_command { driver; subscribe_num = Frame.int r }
  | 5 ->
      let s = Frame.string r in
      if String.length s = 0 then Frame.fail "empty fault reason";
      let m = String.sub s 1 (String.length s - 1) in
      Process.Faulted
        (match s.[0] with
        | 'M' -> Process.Mpu_violation m
        | 'B' -> Process.Bad_syscall m
        | 'A' -> Process.App_panic m
        | c -> Frame.fail "unknown fault tag %c" c)
  | 6 -> Process.Terminated { code = Frame.int r }
  | 7 -> Process.Stopped (decode_pstate r)
  | n -> Frame.fail "unknown process-state tag %d" n

let decode_resume r : Process.resume_arg option =
  match Frame.int r with
  | 0 -> None
  | 1 -> Some Process.Rstart
  | 2 -> Some Process.Rcontinue
  | 3 ->
      let n = Frame.int r in
      if n < 0 || n > 16 then Frame.fail "bad register count %d" n;
      Some (Process.Rsyscall_ret (Array.init n (fun _ -> Frame.int r)))
  | 4 ->
      let fnptr = Frame.int r in
      let appdata = Frame.int r in
      let arg0 = Frame.int r in
      let arg1 = Frame.int r in
      Some (Process.Rupcall { fnptr; appdata; arg0; arg1; arg2 = Frame.int r })
  | n -> Frame.fail "unknown resume tag %d" n

let decode_ram r =
  let len = Frame.int r in
  if len < 0 then Frame.fail "bad RAM size %d" len;
  let runs =
    Frame.list r ~min:16 (fun r ->
        let off = Frame.int r in
        let rl = Frame.int r in
        if off < 0 || rl < 0 || rl > len - off then
          Frame.fail "RAM run out of range (off=%d len=%d ram=%d)" off rl len;
        (off, Frame.raw r rl))
  in
  (len, runs)

let decode_process r =
  let wp_name = Frame.string r in
  let wp_state = decode_pstate r in
  let wp_resume = decode_resume r in
  let wp_restarts = Frame.int r in
  let wp_syscalls = Frame.int r in
  let wp_grant_enters = Frame.int r in
  let wp_grant_bytes = Frame.int r in
  let wp_app_break = Frame.int r in
  let wp_kernel_break = Frame.int r in
  let wp_upcall_drops = Frame.int r in
  let wp_mpu_scans = Frame.int r in
  let wp_ckpt = Frame.int r in
  let wp_at_sleep =
    match Frame.int r with
    | 0 -> false
    | 1 -> true
    | n -> Frame.fail "bad at-sleep flag %d" n
  in
  let wp_mpu_gen = Frame.int r in
  let wp_mpu_caches =
    List.init 3 (fun _ ->
        let g = Frame.int r in
        let lo = Frame.int r in
        (g, lo, Frame.int r))
  in
  let wp_residue =
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
        Some { Process.er_alloc_next; er_next_fn; er_scratch }
    | n -> Frame.fail "bad residue flag %d" n
  in
  let wp_classes =
    Frame.list r ~min:16 (fun r ->
        let c = Frame.int r in
        (c, Frame.int r))
  in
  let wp_grants = Frame.list r ~min:8 Frame.string in
  let wp_subs =
    Frame.list r ~min:32 (fun r ->
        let d = Frame.int r in
        let s = Frame.int r in
        let f = Frame.int r in
        (d, s, f, Frame.int r))
  in
  let wp_allows =
    Frame.list r ~min:40 (fun r ->
        let k = Frame.int r in
        if k <> 0 && k <> 1 then Frame.fail "bad allow kind %d" k;
        let d = Frame.int r in
        let n = Frame.int r in
        let addr = Frame.int r in
        (k, d, n, addr, Frame.int r))
  in
  let wp_pending =
    Frame.list r ~min:56 (fun r ->
        let pu_driver = Frame.int r in
        let pu_subscribe = Frame.int r in
        let fnptr = Frame.int r in
        let appdata = Frame.int r in
        let a0 = Frame.int r in
        let a1 = Frame.int r in
        let a2 = Frame.int r in
        { Process.pu_driver; pu_subscribe; pu_upcall = { Process.fnptr; appdata };
          pu_args = (a0, a1, a2) })
  in
  let wp_ram_len, wp_ram_runs = decode_ram r in
  { wp_name; wp_state; wp_resume; wp_restarts; wp_syscalls; wp_grant_enters;
    wp_grant_bytes; wp_app_break; wp_kernel_break; wp_upcall_drops;
    wp_mpu_scans; wp_ckpt; wp_at_sleep; wp_mpu_gen; wp_mpu_caches; wp_residue;
    wp_classes; wp_grants; wp_subs; wp_allows; wp_pending; wp_ram_len;
    wp_ram_runs }

(* The smallest process record: 31 words, every string and list
   empty. *)
let proc_min = 8 * 31

let decode ~components w =
  let ( let* ) = Result.bind in
  let* f = Frame.decode ~magic ~sections:(sections ~components) w in
  let* hdr =
    Frame.read f board (fun r ->
        let w_now = Frame.int r in
        let w_active = Frame.int r in
        let w_sleep = Frame.int r in
        let w_rng = Frame.int64 r in
        let w_events = Array.of_list (Frame.list r ~min:8 Frame.int) in
        let w_next_pid = Frame.int r in
        { w_now; w_active; w_sleep; w_rng; w_events; w_next_pid;
          w_ram_next = Frame.int r; w_procs = []; w_frame = f })
  in
  let* w_procs = Frame.read f procs (fun r -> Frame.list r ~min:proc_min decode_process) in
  Ok { hdr with w_procs }

let restore_registry reg r =
  let digest = Frame.raw r 16 in
  match Metrics.restore reg ~digest (Frame.rest r) with
  | Ok () -> ()
  | Error e -> Frame.fail "%s" e
