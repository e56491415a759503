(* Board-level concerns: composition checking (Fig. 3), the trust map
   (capsule sources must not reach trusted APIs — the OCaml analogue of
   capsules being unsafe-free crates), multi-board simulation, and energy
   accounting. *)

open! Helpers

let test_composition_typed () =
  (* The typed path: providers only exist for polarities the chip can
     drive, and connect requires matching witnesses.

     The ill-typed stackups are unrepresentable — these do not compile:
       Composition.connect provider_low_witness Composition.requires_high
       Composition.connect provider_high_witness Composition.requires_low *)
  let sim = Tock_hw.Sim.create () in
  let sam = Tock_hw.Chip.sam4l_like sim in
  let rv = Tock_hw.Chip.rv32_like sim in
  (* sam4l: active-low only *)
  (match Tock_boards.Composition.provider_low sam.Tock_hw.Chip.spi ~cs:0 with
  | Some p ->
      let conn = Tock_boards.Composition.connect p Tock_boards.Composition.requires_low in
      (match Tock_boards.Composition.configure sam.Tock_hw.Chip.spi conn with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail "sam4l must provide active-low");
  Alcotest.(check bool) "sam4l line 0 configured active-low" true
    (Tock_hw.Spi.cs_polarity sam.Tock_hw.Chip.spi ~cs:0 = Tock_hw.Spi.Active_low);
  Alcotest.(check bool) "sam4l cannot mint active-high" true
    (Tock_boards.Composition.provider_high sam.Tock_hw.Chip.spi ~cs:0 = None);
  (* rv32: configurable, both witnesses mintable *)
  Alcotest.(check bool) "rv32 provides both" true
    (Tock_boards.Composition.provider_low rv.Tock_hw.Chip.spi ~cs:0 <> None
    && Tock_boards.Composition.provider_high rv.Tock_hw.Chip.spi ~cs:1 <> None);
  (* the active-high path (Fig. 3): configure sets the line *)
  match Tock_boards.Composition.provider_high rv.Tock_hw.Chip.spi ~cs:1 with
  | Some p ->
      let conn =
        Tock_boards.Composition.connect p Tock_boards.Composition.requires_high
      in
      (match Tock_boards.Composition.configure rv.Tock_hw.Chip.spi conn with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "rv32 line 1 configured active-high" true
        (Tock_hw.Spi.cs_polarity rv.Tock_hw.Chip.spi ~cs:1
        = Tock_hw.Spi.Active_high)
  | None -> Alcotest.fail "rv32 must provide active-high"

let test_composition_matrix () =
  let open Tock_boards.Composition in
  let open Tock_hw.Spi in
  let cases =
    [
      (Only_active_low, Needs_low, true);
      (Only_active_low, Needs_high, false);
      (Only_active_high, Needs_low, false);
      (Only_active_high, Needs_high, true);
      (Configurable, Needs_low, true);
      (Configurable, Needs_high, true);
    ]
  in
  List.iter
    (fun (cap, need, expect) ->
      Alcotest.(check bool) "matrix entry" expect (validate cap need))
    cases

(* Trust map enforcement (DESIGN.md §4): capsule sources must not use the
   trusted escape hatches. This is the analogue of Tock denying `unsafe`
   in capsule crates — checked over the actual source tree. *)
let capsule_sources () =
  let dir = "../../../lib/capsules" in
  (* dune runs tests in _build/default/test; sources are promoted relative
     to the workspace root. Fall back to the project-root path. *)
  let dir = if Sys.file_exists dir then dir else "lib/capsules" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.map (fun f ->
         let ic = open_in (Filename.concat dir f) in
         let n = in_channel_length ic in
         let s = really_input_string ic n in
         close_in ic;
         (f, s))

let test_capsules_never_mint_capabilities () =
  List.iter
    (fun (f, src) ->
      if contains src "Trusted_mint" then
        Alcotest.failf "%s mints capabilities (trusted API)" f)
    (capsule_sources ())

let test_capsules_never_touch_raw_memory () =
  (* Only the documented legacy (v1 reproduction) capsule may reach raw
     process memory or simulator internals. *)
  List.iter
    (fun (f, src) ->
      if f = "legacy_console.ml" then ()
      else begin
        if contains src "Process.ram_bytes" then
          Alcotest.failf "%s reads raw process memory" f;
        if contains src "Process.mem_view" then
          Alcotest.failf "%s translates raw process addresses" f;
        if contains src "Tock_hw." then
          Alcotest.failf "%s bypasses the HIL to raw hardware" f
      end)
    (capsule_sources ())

let test_multi_board_isolation () =
  (* Two boards on one medium: each kernel's processes, console, and
     stats are fully independent. *)
  let net = Tock_boards.Signpost_board.create ~nodes:2 () in
  let a, b =
    match net.Tock_boards.Signpost_board.nodes with
    | [ a; b ] -> (a.Tock_boards.Signpost_board.node_board, b.Tock_boards.Signpost_board.node_board)
    | _ -> assert false
  in
  ignore (add_app_exn a ~name:"only-on-a" Tock_userland.Apps.hello);
  Tock_boards.Signpost_board.run_all net ~max_cycles:50_000_000;
  check_contains ~msg:"a printed" (Tock_boards.Board.output a) "Hello from only-on-a!";
  Alcotest.(check string) "b silent" "" (Tock_boards.Board.output b);
  Alcotest.(check int) "b ran no syscalls" 0
    (Tock.Kernel.stats b.Tock_boards.Board.kernel).Tock.Kernel.syscalls

let test_energy_sleep_dominates () =
  (* The async kernel's whole point (paper §2.5): a duty-cycled workload
     spends almost all cycles asleep. *)
  let board = make_board () in
  ignore
    (add_app_exn board ~name:"logger"
       (Tock_userland.Apps.sensor_logger ~samples:5 ~period_ticks:2000));
  run_done board;
  let sim = board.Tock_boards.Board.sim in
  let active = Tock_hw.Sim.active_cycles sim in
  let asleep = Tock_hw.Sim.sleep_cycles sim in
  Alcotest.(check bool) "sleep fraction > 95%" true
    (float_of_int asleep /. float_of_int (active + asleep) > 0.95)

let trace_on sim = Tock_obs.Trace.on (Tock_hw.Sim.trace_events sim)

let trace_total sim = Tock_obs.Trace.total (Tock_hw.Sim.trace_events sim)

let test_rot_board_defaults () =
  let rot = Tock_boards.Rot_board.create () in
  let board = rot.Tock_boards.Rot_board.board in
  Alcotest.(check string) "riscv chip" "rv32_like"
    board.Tock_boards.Board.chip.Tock_hw.Chip.name;
  Alcotest.(check bool) "blocking commands off by default" false
    (Tock.Kernel.config board.Tock_boards.Board.kernel).Tock.Kernel.blocking_commands;
  Alcotest.(check int) "pubkey length" 8
    (Bytes.length (Tock_boards.Rot_board.public_key_bytes rot));
  Alcotest.(check bool) "no trace ring" false
    (trace_on board.Tock_boards.Board.sim)

(* Signpost groups record no trace unless the caller sizes a ring:
   fleets build thousands of them and read none. *)
let test_board_trace_opt_in () =
  let signpost trace_capacity =
    let net = Tock_boards.Signpost_board.create ?trace_capacity ~nodes:2 () in
    (match net.Tock_boards.Signpost_board.nodes with
    | a :: _ ->
        ignore
          (add_app_exn a.Tock_boards.Signpost_board.node_board ~name:"hi"
             Tock_userland.Apps.hello)
    | [] -> assert false);
    Tock_boards.Signpost_board.run_all net ~max_cycles:2_000_000;
    net.Tock_boards.Signpost_board.sim
  in
  let off = signpost None and on = signpost (Some 256) in
  Alcotest.(check bool) "off by default" false (trace_on off);
  Alcotest.(check int) "nothing recorded" 0 (trace_total off);
  Alcotest.(check bool) "on with a ring" true (trace_on on);
  Alcotest.(check bool) "events recorded" true (trace_total on > 0)

(* GC hazard: [Array.make]/[Array.init] of more than 256 words with a
   young initial value forces a minor collection, which promotes the
   whole young generation. Board construction must not hit it: with a
   minor heap big enough to hold a whole 8-node group, building the
   group performs no minor collection at all. *)
let test_signpost_build_no_forced_minor () =
  let saved = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with Gc.minor_heap_size = 1 lsl 20 };
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      let net = Tock_boards.Signpost_board.create ~nodes:8 () in
      let after = (Gc.quick_stat ()).Gc.minor_collections in
      Alcotest.(check int) "minor collections while building" 0
        (after - before);
      Alcotest.(check int) "nodes" 8
        (List.length net.Tock_boards.Signpost_board.nodes))

(* A board of the fleet's counter + hello mix; [tag] names its apps, so
   a new tag is a recipe no registry has walked yet. *)
let recipe_board tag =
  let b = make_board () in
  ignore
    (add_app_exn b ~name:(tag ^ "-counter")
       (Tock_userland.Apps.counter ~n:8 ~period_ticks:200));
  ignore (add_app_exn b ~name:(tag ^ "-hello") Tock_userland.Apps.hello);
  b

let recipes = Atomic.make 0

(* Board construction follows its recipe's layout: the first board of a
   fresh recipe looks up every series it registers, later ones walk the
   trie path it left. The first and the 100th board must be the same
   board: equal freeze bytes at cycle 0 and after a random run. *)
let qcheck_build_equivalence =
  qcheck ~count:8 "first and 100th board of a recipe freeze equal"
    QCheck2.Gen.(int_range 1 3_000_000)
    (fun cycles ->
      let tag = Printf.sprintf "recipe%d" (Atomic.fetch_and_add recipes 1) in
      let first = recipe_board tag in
      for _ = 2 to 99 do
        ignore (Sys.opaque_identity (recipe_board tag))
      done;
      let hundredth = recipe_board tag in
      let freeze b = Tock.Kernel.freeze b.Tock_boards.Board.kernel in
      let at_zero = String.equal (freeze first) (freeze hundredth) in
      Tock_boards.Board.run_cycles first cycles;
      Tock_boards.Board.run_cycles hundredth cycles;
      at_zero && String.equal (freeze first) (freeze hundredth))

(* Building boards of one recipe retains nothing once the first has
   been built: no registry, flash array or trie node outlives the
   board it belonged to, at most a word per board. *)
let test_build_retains_nothing () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  ignore (Sys.opaque_identity (recipe_board "flat"));
  let after_first = live () in
  for _ = 2 to 1_000 do
    ignore (Sys.opaque_identity (recipe_board "flat"))
  done;
  let grown = live () - after_first in
  if grown > 1_000 then
    Alcotest.failf "999 more boards left %d more live words" grown

let suite =
  [
    Alcotest.test_case "composition typed" `Quick test_composition_typed;
    Alcotest.test_case "composition matrix" `Quick test_composition_matrix;
    Alcotest.test_case "capsules: no capability minting" `Quick test_capsules_never_mint_capabilities;
    Alcotest.test_case "capsules: no raw memory/hw" `Quick test_capsules_never_touch_raw_memory;
    Alcotest.test_case "multi-board isolation" `Quick test_multi_board_isolation;
    Alcotest.test_case "energy: sleep dominates" `Quick test_energy_sleep_dominates;
    Alcotest.test_case "rot board defaults" `Quick test_rot_board_defaults;
    Alcotest.test_case "board tracing is opt-in" `Quick test_board_trace_opt_in;
    Alcotest.test_case "signpost build forces no minor GC" `Quick
      test_signpost_build_no_forced_minor;
    qcheck_build_equivalence;
    Alcotest.test_case "1,000 builds retain nothing" `Quick
      test_build_retains_nothing;
  ]
