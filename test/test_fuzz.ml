(* Kernel robustness: apps throwing random registers at the syscall
   boundary. Whatever userspace does, the kernel must respond with an
   error or fault the offending process — never raise, never corrupt
   other processes. This is the dynamic analogue of the paper's §5.1
   concern: the boundary, not the safe interior, is where soundness is
   won or lost. *)

open! Helpers
open Tock

let gen_regs =
  QCheck2.Gen.(
    list_size (return 30)
      (tup5
         (* bias toward real classes but include garbage *)
         (oneof [ int_range 0 8; int_range 0 0xFF ])
         (int_range 0 0xFFFF)
         (oneof [ int_range 0 16; int_range 0 0xFFFFFF ])
         (oneof [ int_range 0 0xFFFF; return 0x2000_0000 ])
         (int_range 0 0xFFFF)))

let fuzz_prop =
  qcheck ~count:40 "kernel: random syscalls never panic the kernel"
    gen_regs
    (fun calls ->
      let board = make_board () in
      (* A bystander that must stay healthy. *)
      ignore
        (add_app_exn board ~name:"bystander"
           (Tock_userland.Apps.counter ~n:3 ~period_ticks:64));
      let fuzzer a =
        List.iter
          (fun (c, r0, r1, r2, r3) ->
            (* Yield-wait with nothing pending would block forever: turn
               class-0 rolls into yield-no-wait, which is total. *)
            let regs =
              if c = 0 then [| 0; 0; 0; 0; 0 |] else [| c; r0; r1; r2; r3 |]
            in
            match Tock_userland.Emu.syscall a regs with
            | `Regs _ -> ()
            | `Upcall _ -> ())
          calls;
        Tock_userland.Libtock.exit a 0
      in
      ignore (add_app_exn board ~name:"fuzzer" fuzzer);
      (try run_done board ~max_cycles:400_000_000
       with Kernel.Panic _ -> Alcotest.fail "kernel panicked");
      (* The bystander completed untouched. *)
      contains (Tock_boards.Board.output board) "bystander: count 3")

(* One decoder, two paths. The same random sequence runs on two fresh
   boards, one with a syscall trace hook. The hook must not change
   anything the process or the kernel can observe, and what it reports
   must be what [Syscall] decodes: [decode_call] of the frame the app
   sent, [decode_ret] of the registers the app got back. Frames that do
   not decode must come back as [decode_call]'s error. *)
type fuzz_run = {
  fr_results : (int array * [ `Regs of int array | `Upcall of int array ]) list;
      (* each returning frame, in order, with what it came back with *)
  fr_events : (Syscall.call * Syscall.ret option) list; (* the hook's, in order *)
  fr_states : Process.state list;
  fr_stats : Kernel.stats;
  fr_classes : (int * int) list;
}

let run_fuzz ~hooked calls =
  let board = make_board () in
  let k = board.Tock_boards.Board.kernel in
  ignore
    (add_app_exn board ~name:"bystander"
       (Tock_userland.Apps.counter ~n:3 ~period_ticks:64));
  let results = ref [] and events = ref [] in
  let fuzzer a =
    List.iter
      (fun (c, r0, r1, r2, r3) ->
        let regs = if c = 0 then [| 0; 0; 0; 0; 0 |] else [| c; r0; r1; r2; r3 |] in
        let back =
          match Tock_userland.Emu.syscall a regs with
          | `Regs r -> `Regs (Array.copy r)
          | `Upcall u -> `Upcall (Array.copy u)
        in
        results := (regs, back) :: !results)
      calls;
    Tock_userland.Libtock.exit a 0
  in
  if hooked then
    Kernel.set_syscall_trace k
      (Some
         (fun p call ret ->
           if Process.name p = "fuzzer" then events := (call, ret) :: !events));
  let fp = add_app_exn board ~name:"fuzzer" fuzzer in
  (try run_done board ~max_cycles:100_000_000
   with Kernel.Panic _ -> Alcotest.fail "kernel panicked");
  {
    fr_results = List.rev !results;
    fr_events = List.rev !events;
    fr_states = List.map Process.state (Kernel.processes k);
    fr_stats = Kernel.stats k;
    fr_classes =
      List.filter_map
        (fun c ->
          match Process.syscall_count_by_class fp ~class_num:c with
          | 0 -> None
          | n -> Some (c, n))
        (List.init 0x100 Fun.id);
  }

(* Walk the app's returning frames against the hook's events. A frame
   that does not return (exit) still has its event, with no return. *)
let hook_agrees_with_decoders run =
  let rec walk results events =
    match (results, events) with
    | [], rest ->
        List.for_all (fun (_, ret) -> ret = None) rest
    | (regs, back) :: results', _ -> (
        match (Syscall.decode_call regs, back, events) with
        | Error e, `Regs r, _ ->
            Syscall.decode_ret r = Ok (Syscall.Failure e) && walk results' events
        | Ok call, _, (call', ret) :: events' when call = call' -> (
            match (ret, back) with
            | Some ret, `Regs r ->
                Syscall.decode_ret r = Ok ret && walk results' events'
            | None, `Upcall _ -> walk results' events'
            | _ -> false)
        | Ok _, _, (Syscall.Exit _, None) :: events' ->
            (* an exit that restarted the app: its frame never returned *)
            walk results events'
        | _ -> false)
  in
  walk run.fr_results run.fr_events

let fuzz_trace_hook_prop =
  qcheck ~count:25 "kernel: trace hook sees what Syscall decodes" gen_regs
    (fun calls ->
      let plain = run_fuzz ~hooked:false calls in
      let traced = run_fuzz ~hooked:true calls in
      plain.fr_events = []
      && plain.fr_results = traced.fr_results
      && plain.fr_states = traced.fr_states
      && plain.fr_stats = traced.fr_stats
      && plain.fr_classes = traced.fr_classes
      && traced.fr_events <> []
      && hook_agrees_with_decoders traced)

let fuzz_allow_prop =
  qcheck ~count:40 "kernel: random allow ranges never expose other memory"
    QCheck2.Gen.(list_size (return 20) (pair (int_range 0 0x3000_0000) (int_range 0 100000)))
    (fun ranges ->
      let board = make_board () in
      let victim_ram = ref (0, 0) in
      let victim a =
        victim_ram :=
          (Tock_userland.Libtock.ram_start a, Tock_userland.Libtock.ram_end a);
        (* park forever so its memory stays live *)
        let rec loop () =
          Tock_userland.Libtock_sync.sleep_ticks a 1000;
          loop ()
        in
        loop ()
      in
      ignore (add_app_exn board ~name:"victim" victim);
      let results = ref [] in
      let attacker a =
        List.iter
          (fun (addr, len) ->
            match
              Tock_userland.Libtock.allow_rw a ~driver:Driver_num.console
                ~num:1 ~addr ~len
            with
            | Ok _ -> results := (addr, len) :: !results
            | Error _ -> ())
          ranges;
        Tock_userland.Libtock.exit a 0
      in
      let ap = add_app_exn board ~name:"attacker" attacker in
      Tock_boards.Board.run_cycles board 50_000_000;
      (* Every accepted rw-allow lies inside the attacker's own accessible
         memory — never in the victim's block or kernel-owned space. *)
      let own_lo = Process.ram_base ap and own_hi = Process.app_break ap in
      List.for_all
        (fun (addr, len) ->
          len = 0 || (addr >= own_lo && addr + len <= own_hi))
        !results)

let suite = [ fuzz_prop; fuzz_trace_hook_prop; fuzz_allow_prop ]
