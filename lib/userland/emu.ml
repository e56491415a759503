(* otock-lint: allow-file userland-kernel-internals — Emu is the
   userland/kernel bridge, not app code: it implements Process.execution
   (the trap frame and context switch) over effect handlers, so it must
   drive the Process lifecycle directly. App code above it sees only the
   Libtock ABI. *)
open Effect
open Effect.Deep

type sys_resume = [ `Regs of int array | `Upcall of int array ]

type app = {
  a_proc : Tock.Process.t;
  mutable alloc_next : int;
  upcalls : (int -> int -> int -> unit) Tock.Int_hashtbl.Int.t;
  mutable next_fn : int;
  scratch : (string, int * int) Hashtbl.t; (* tag -> (addr, size) *)
  frame : int array;
      (* The app's one trap frame: class + r0..r3. [trap] overwrites it
         for every call; the kernel reads all of it before it resumes
         the app, so no call can see another's registers. *)
  sys : sys_resume Effect.t; (* [Sys frame], built once *)
  mutable ret_buf : int array;
  mutable ret_regs : sys_resume;
      (* [`Regs ret_buf]: the kernel returns through one buffer per
         process, so the resume wraps it once, not per call *)
  mutable up_buf : int array;
  mutable up_regs : sys_resume; (* [`Upcall up_buf], likewise *)
}

type _ Effect.t +=
  | Sys : int array -> sys_resume Effect.t
  | Work_eff : int -> unit Effect.t

exception App_panic_exn of string

exception Mpu_fault of string

let proc app = app.a_proc

let proc_name app = Tock.Process.name app.a_proc

let syscall _app regs = perform (Sys regs)

let trap app cls r0 r1 r2 r3 =
  let f = app.frame in
  Array.unsafe_set f 0 cls;
  Array.unsafe_set f 1 r0;
  Array.unsafe_set f 2 r1;
  Array.unsafe_set f 3 r2;
  Array.unsafe_set f 4 r3;
  perform app.sys

let work _app n = if n > 0 then perform (Work_eff n)

(* ---- MPU-checked memory ---- *)

let ram_offset app ~addr ~len kind =
  let p = app.a_proc in
  if not (Tock.Process.check_access p ~addr ~len kind) then
    raise
      (Mpu_fault
         (Printf.sprintf "%s of %d bytes at 0x%x"
            (match kind with `Read -> "read" | `Write -> "write" | `Execute -> "exec")
            len addr));
  addr - Tock.Process.ram_base p

(* The scalar loads/stores below are the simulator's data-plane inner
   loop: every emulated memory access funnels through them. They are
   written to allocate nothing — no intermediate buffer, no boxed int32
   (we compose u32s from immediate uint16 reads), and no variant for the
   flash/RAM dispatch — so a tight copy loop in an app costs only the
   cached MPU check plus the byte accesses, like the hardware it models. *)

let in_flash p ~addr ~len =
  addr >= Tock.Process.flash_base p && len <= Tock.Process.flash_end p - addr

(* Reads may also hit the process's own flash image (code constants). *)
let read_u8 app ~addr =
  let p = app.a_proc in
  if in_flash p ~addr ~len:1 then
    Char.code (Bytes.get (Tock.Process.flash_image p) (addr - Tock.Process.flash_base p))
  else
    Char.code (Bytes.get (Tock.Process.ram_bytes p) (ram_offset app ~addr ~len:1 `Read))

let write_u8 app ~addr ~v =
  let off = ram_offset app ~addr ~len:1 `Write in
  Bytes.set (Tock.Process.ram_bytes app.a_proc) off (Char.chr (v land 0xff))

let get_u32_le b off =
  Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16)

let read_u32 app ~addr =
  let p = app.a_proc in
  if in_flash p ~addr ~len:4 then
    get_u32_le (Tock.Process.flash_image p) (addr - Tock.Process.flash_base p)
  else get_u32_le (Tock.Process.ram_bytes p) (ram_offset app ~addr ~len:4 `Read)

let write_u32 app ~addr ~v =
  let off = ram_offset app ~addr ~len:4 `Write in
  let b = Tock.Process.ram_bytes app.a_proc in
  Bytes.set_uint16_le b off (v land 0xffff);
  Bytes.set_uint16_le b (off + 2) ((v lsr 16) land 0xffff)

(* ---- copy accounting ----

   Every bulk transfer across the app/kernel boundary is tallied here,
   the userland mirror of [Subslice]'s counter: the iopath bench diffs
   both around a syscall to prove a path really is zero-copy. Scalar
   accesses are register traffic, not copies, and stay uncounted. *)

let copies = Atomic.make 0

let copy_count () = Atomic.get copies

let count_copy len = if len > 0 then Atomic.incr copies

let read_into app ~addr ~len ~dst ~dst_off =
  if dst_off < 0 || len < 0 || dst_off + len > Bytes.length dst then
    raise (App_panic_exn "read_into: bad destination range");
  count_copy len;
  let p = app.a_proc in
  if in_flash p ~addr ~len then
    Bytes.blit (Tock.Process.flash_image p)
      (addr - Tock.Process.flash_base p)
      dst dst_off len
  else
    Bytes.blit (Tock.Process.ram_bytes p)
      (ram_offset app ~addr ~len `Read)
      dst dst_off len

let read_bytes app ~addr ~len =
  let b = Bytes.create len in
  read_into app ~addr ~len ~dst:b ~dst_off:0;
  b

let write_from app ~addr ~src ~src_off ~len =
  if src_off < 0 || len < 0 || src_off + len > Bytes.length src then
    raise (App_panic_exn "write_from: bad source range");
  count_copy len;
  let off = ram_offset app ~addr ~len `Write in
  Bytes.blit src src_off (Tock.Process.ram_bytes app.a_proc) off len

let write_bytes app ~addr data =
  write_from app ~addr ~src:data ~src_off:0 ~len:(Bytes.length data)

let write_string app ~addr s =
  let len = String.length s in
  count_copy len;
  let off = ram_offset app ~addr ~len `Write in
  Bytes.blit_string s 0 (Tock.Process.ram_bytes app.a_proc) off len

(* ---- allocator ---- *)

let align8 n = (n + 7) land lnot 7

let alloc app n =
  if n < 0 then raise (App_panic_exn "alloc: negative size");
  let addr = align8 app.alloc_next in
  let new_next = addr + n in
  let break = Tock.Process.app_break app.a_proc in
  if new_next > break then begin
    (* Grow the break through the real syscall path. *)
    let want = align8 (new_next + 64) in
    match
      trap app Tock.Syscall.class_memop Tock.Syscall.memop_brk want 0 0
    with
    | `Regs ret -> (
        match Tock.Syscall.decode_ret ret with
        | Ok Tock.Syscall.Success -> ()
        | _ -> raise (App_panic_exn "out of memory (brk refused)"))
    | `Upcall _ -> raise (App_panic_exn "unexpected upcall during brk")
  end;
  app.alloc_next <- new_next;
  addr

let get_buffer app ~tag ~size =
  match Hashtbl.find_opt app.scratch tag with
  | Some (addr, have) when have >= size -> addr
  | prev ->
      (* Growth leaks the old block down the bump allocator (there is no
         free), so allocate whole 8-byte granules — recording the size we
         actually own, not the size requested — and at least double any
         previous buffer, so alternating request sizes settle instead of
         leaking a fresh block on every flip. *)
      let want =
        match prev with
        | Some (_, have) -> max size (have * 2)
        | None -> size
      in
      let n = align8 want in
      let addr = alloc app n in
      Hashtbl.replace app.scratch tag (addr, n);
      addr

(* ---- upcall function table ---- *)

let register_upcall_fn app fn =
  let id = app.next_fn in
  app.next_fn <- id + 1;
  Tock.Int_hashtbl.Int.replace app.upcalls id fn;
  id

let remove_upcall_fn app id = Tock.Int_hashtbl.Int.remove app.upcalls id

let upcall_fn_count app = Tock.Int_hashtbl.Int.length app.upcalls

(* Deliveries to a pointer with no closure (null, or swapped out and
   removed) are dropped, like a stale function pointer. *)
let run_upcall app id a0 a1 a2 =
  match Tock.Int_hashtbl.Int.find app.upcalls id with
  | fn -> fn a0 a1 a2
  | exception Not_found -> ()

(* ---- freeze/thaw: checkpoints and the kernel bridge ---- *)

let checkpoint app i = Tock.Process.set_checkpoint app.a_proc i

let resume_point app = Tock.Process.checkpoint app.a_proc

let take_resume_alarm app = Tock.Process.take_resume_alarm app.a_proc

let set_at_sleep app v = Tock.Process.set_at_sleep app.a_proc v

(* The emulator's data state beside the continuation, exposed to
   [Kernel.freeze]/[thaw] as closures on the process (the kernel cannot
   depend on this library). *)
let install_bridge app =
  Tock.Process.set_bridge app.a_proc
    {
      Tock.Process.br_residue =
        (fun () ->
          let scratch =
            Hashtbl.fold (fun tag v acc -> (tag, v) :: acc) app.scratch []
          in
          {
            Tock.Process.er_alloc_next = app.alloc_next;
            er_next_fn = app.next_fn;
            er_scratch = List.sort compare scratch;
          });
      br_set_residue =
        (fun r ->
          app.alloc_next <- r.Tock.Process.er_alloc_next;
          app.next_fn <- r.Tock.Process.er_next_fn;
          Hashtbl.reset app.scratch;
          List.iter
            (fun (tag, v) -> Hashtbl.replace app.scratch tag v)
            r.Tock.Process.er_scratch);
      br_remap_upcall =
        (fun ~old_id ~new_id ->
          match Tock.Int_hashtbl.Int.find app.upcalls old_id with
          | exception Not_found -> false
          | fn ->
              Tock.Int_hashtbl.Int.remove app.upcalls old_id;
              Tock.Int_hashtbl.Int.replace app.upcalls new_id fn;
              true);
    }

(* ---- the execution harness ---- *)

type suspension =
  | Not_started of (unit -> unit)
  | In_syscall of (sys_resume, Tock.Process.trap) continuation
  | In_tick of (unit, Tock.Process.trap) continuation * int (* leftover work *)
  | Dead

let implicit_exit =
  Tock.Process.Trap_syscall
    (Tock.Syscall.encode_call (Tock.Syscall.Exit { variant = 0; code = 0 }))

let regs_of app buf =
  if buf != app.ret_buf then begin
    app.ret_buf <- buf;
    app.ret_regs <- `Regs buf
  end;
  app.ret_regs

let upcall_of app buf =
  if buf != app.up_buf then begin
    app.up_buf <- buf;
    app.up_regs <- `Upcall buf
  end;
  app.up_regs

let spawn main p =
  let frame = Array.make Tock.Syscall.registers 0 in
  let app =
    {
      a_proc = p;
      alloc_next = Tock.Process.ram_base p;
      upcalls = Tock.Int_hashtbl.Int.create 16;
      next_fn = 1;
      scratch = Hashtbl.create 8;
      frame;
      sys = Sys frame;
      ret_buf = [||];
      ret_regs = `Regs [||];
      up_buf = [||];
      up_regs = `Upcall [||];
    }
  in
  install_bridge app;
  let state = ref (Not_started (fun () -> main app)) in
  let remaining = ref 0 in
  let used = ref 0 in
  (* The handler's per-perform values are built here, once: the frame's
     trap and the [Some] closures [effc] returns. *)
  let frame_trap = Tock.Process.Trap_syscall frame in
  let sys_some =
    Some
      (fun k ->
        state := In_syscall k;
        frame_trap)
  in
  (* [effc] stores each [Work_eff]'s amount here just before it returns
     [work_some], which runs at once. *)
  let work_n = ref 0 in
  let work_some =
    Some
      (fun k ->
        let n = !work_n in
        if n <= !remaining then begin
          remaining := !remaining - n;
          used := !used + n;
          continue k ()
        end
        else begin
          used := !used + !remaining;
          let leftover = n - !remaining in
          remaining := 0;
          state := In_tick (k, leftover);
          Tock.Process.Trap_timeslice_expired
        end)
  in
  let handler : (unit, Tock.Process.trap) handler =
    {
      retc =
        (fun () ->
          state := Dead;
          implicit_exit);
      exnc =
        (fun e ->
          state := Dead;
          match e with
          | Mpu_fault m -> Tock.Process.Trap_fault (Tock.Process.Mpu_violation m)
          | App_panic_exn m -> Tock.Process.Trap_fault (Tock.Process.App_panic m)
          | e ->
              Tock.Process.Trap_fault
                (Tock.Process.App_panic (Printexc.to_string e)));
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, Tock.Process.trap) continuation -> Tock.Process.trap) option ->
          match eff with
          | Sys regs when regs == frame -> sys_some
          | Sys regs ->
              Some
                (fun k ->
                  state := In_syscall k;
                  Tock.Process.Trap_syscall regs)
          | Work_eff n ->
              work_n := n;
              work_some
          | _ -> None);
    }
  in
  let step ~fuel arg =
    remaining := fuel;
    used := 0;
    let trap =
      match (!state, arg) with
      | Dead, _ ->
          Tock.Process.Trap_fault (Tock.Process.App_panic "resumed dead process")
      | Not_started th, _ -> match_with th () handler
      | In_syscall k, Tock.Process.Rsyscall_ret regs -> continue k (regs_of app regs)
      | In_syscall k, Tock.Process.Rupcall frame ->
          continue k (upcall_of app frame)
      | In_syscall k, (Tock.Process.Rstart | Tock.Process.Rcontinue) ->
          discontinue k (App_panic_exn "protocol: no syscall return delivered")
      | In_tick (k, leftover), _ ->
          if leftover <= fuel then begin
            remaining := fuel - leftover;
            used := leftover;
            continue k ()
          end
          else begin
            used := fuel;
            state := In_tick (k, leftover - fuel);
            Tock.Process.Trap_timeslice_expired
          end
    in
    trap
  in
  let destroy () = state := Dead in
  { Tock.Process.step; used = (fun () -> !used); destroy }
