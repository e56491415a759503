(* The depth-first fleet scheduler: deterministic results independent
   of domain count and batch quantum (which domain runs a group, and
   how its run is chopped into quanta, must never leak into simulation
   results), O(1) fast-forward correctness, plus a small multi-domain
   smoke run. *)

open! Helpers

module Fleet = Tock_fleet.Fleet
module Flight = Tock_fleet.Flight

let small cfg = { cfg with Fleet.cycles = 200_000 }

let check_identical name a b =
  Alcotest.(check int) (name ^ ": board count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Fleet.board_stats) ->
      let y = b.(i) in
      if x <> y then
        Alcotest.failf "%s: board %d diverged:\n  1 domain:  %s\n  N domains: %s"
          name i
          (Format.asprintf "%a" Fleet.pp_board_stats x)
          (Format.asprintf "%a" Fleet.pp_board_stats y))
    a

let test_deterministic_across_domains () =
  (* Independent boards with a deliberately skewed mix (the workload
     rotation gives kv-heavy, blink/sensor and counter boards very
     different cost profiles): merged stats AND the merged metrics
     snapshot must be byte-identical at 1, 2 and 4 domains — domains
     may share out groups, never change results. *)
  let cfg = small { Fleet.default with boards = 9; group_size = 1 } in
  let seq = (Fleet.run_fleet { cfg with domains = 1 }).Fleet.fr_stats in
  let mm_seq = Tock_obs.Metrics.render_json (Fleet.merged_metrics seq) in
  List.iter
    (fun domains ->
      let par = (Fleet.run_fleet { cfg with domains }).Fleet.fr_stats in
      check_identical (Printf.sprintf "%d domains" domains) seq par;
      Alcotest.(check string)
        (Printf.sprintf "merged_metrics @ %d domains" domains)
        mm_seq
        (Tock_obs.Metrics.render_json (Fleet.merged_metrics par)))
    [ 2; 4 ]

let test_deterministic_radio_groups () =
  (* Radio groups (shared Ether within a group) plus a leftover single
     board, sharded across domains. Radio nodes register per-node
     process names, so one group retires several schemas into the same
     merge accumulator and rollup cohorts: the stats, the merged
     metrics and the health report must all be byte-identical at 1, 2
     and 4 domains. *)
  let cfg =
    small { Fleet.default with boards = 7; group_size = 3; health = true }
  in
  let health (r : Fleet.fleet_result) =
    match r.Fleet.fr_health with
    | Some rep -> Fleet.Rollup.render_json rep
    | None -> Alcotest.fail "fr_health missing with health = true"
  in
  let merged (r : Fleet.fleet_result) =
    Tock_obs.Metrics.render_json (Fleet.merged_metrics r.Fleet.fr_stats)
  in
  let seq = Fleet.run_fleet { cfg with domains = 1 } in
  List.iter
    (fun domains ->
      let par = Fleet.run_fleet { cfg with domains } in
      let at what = Printf.sprintf "radio groups: %s @ %d domains" what domains in
      check_identical (at "stats") seq.Fleet.fr_stats par.Fleet.fr_stats;
      Alcotest.(check string) (at "merged metrics") (merged seq) (merged par);
      Alcotest.(check string) (at "health report") (health seq) (health par))
    [ 2; 4 ]

let test_batch_invariance () =
  (* The calendar quantum chops a group's run into arbitrary
     [run_to_deadline] slices; every chopping must reach the same final
     state (this is what lets parked boards skip ahead in O(1)). *)
  let cfg = small { Fleet.default with boards = 6; group_size = 1 } in
  let coarse = (Fleet.run_fleet { cfg with batch = cfg.Fleet.cycles }).Fleet.fr_stats in
  List.iter
    (fun batch ->
      let chopped = (Fleet.run_fleet { cfg with batch }).Fleet.fr_stats in
      check_identical (Printf.sprintf "batch=%d" batch) coarse chopped)
    [ 1_000; 7_777; 50_000 ]

(* A single sleepy-counter board, built from a fixed recipe — the
   shared subject for the fast-forward, freeze/thaw and decoder
   tests. *)
let build_sleepy () =
  let sim = Tock_hw.Sim.create ~seed:0xFAFA_01L ~trace_capacity:0 () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  (match
     Tock_boards.Board.add_app board ~name:"sleepy"
       (Tock_userland.Apps.counter ~n:3 ~period_ticks:1500)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add_app: %s" (Tock.Error.to_string e));
  board

let finish_to b deadline =
  (* Drive run_to_deadline exactly the way the fleet scheduler does. *)
  let k = b.Tock_boards.Board.kernel and cap = b.Tock_boards.Board.main_cap in
  let rec go quantum =
    let now = Tock_hw.Sim.now b.Tock_boards.Board.sim in
    if now < deadline then
      match
        Tock.Kernel.run_to_deadline k ~cap ~deadline:(min (now + quantum) deadline)
      with
      | `Budget -> go quantum
      | `Stalled -> ()
      | `Asleep wake ->
          if wake >= deadline then Tock.Kernel.sleep_to k ~cap deadline
          else begin
            Tock.Kernel.sleep_to k ~cap wake;
            go quantum
          end
  in
  go

let fingerprint b =
  Printf.sprintf "now=%d active=%d sleep=%d out=%s metrics=%s"
    (Tock_hw.Sim.now b.Tock_boards.Board.sim)
    (Tock_hw.Sim.active_cycles b.Tock_boards.Board.sim)
    (Tock_hw.Sim.sleep_cycles b.Tock_boards.Board.sim)
    (Digest.to_hex (Digest.string (Tock_boards.Board.output b)))
    (Tock_obs.Metrics.render_json
       (Tock.Kernel.metrics_snapshot b.Tock_boards.Board.kernel))

(* A sleep-heavy board stepped to its budget in many small quanta vs
   fast-forwarded in one hop must reach the identical final state:
   clock, active/sleep split, output, and the full metrics registry. *)
let test_fast_forward_identical_state () =
  let budget = 3_000_000 in
  let stepped = build_sleepy () in
  finish_to stepped budget 10_000;
  let warped = build_sleepy () in
  finish_to warped budget budget;
  Alcotest.(check string) "stepped == fast-forwarded" (fingerprint stepped)
    (fingerprint warped);
  (* And both landed exactly on the budget, not past it. *)
  Alcotest.(check int) "clock at budget" budget
    (Tock_hw.Sim.now stepped.Tock_boards.Board.sim)

(* The sections a frame may hold, in order: the sleepy board's witness
   (its board registers the alarm, flash and uart_log freezers) or a
   flight artifact. *)
let known_sections magic =
  if magic = Flight.magic then [ "cause"; "events"; "metrics"; "witness" ]
  else Tock.Witness.sections ~components:[ "alarm"; "flash"; "uart_log" ]

let decode_frame ~magic s =
  Tock_obs.Frame.decode ~magic ~sections:(known_sections magic) s

(* A witness's clock: the first word of its [board] section. *)
let witness_clock w =
  let clock =
    Result.bind (decode_frame ~magic:Tock.Witness.magic w) (fun f ->
        Tock_obs.Frame.read f Tock.Witness.board (fun r ->
            let now = Tock_obs.Frame.int r in
            ignore (Tock_obs.Frame.rest r);
            now))
  in
  match clock with Ok now -> now | Error e -> Alcotest.failf "witness: %s" e

(* Snapshot/restore the way a parked fleet board lives it: frozen and
   thawed onto a fresh board at several sleeps along its run, stepped
   with a different chopping than a board that never parks. At every
   hop the witness carries the park clock and equals the never-parked
   board's freeze — earlier resumes leave no trace in it — and the
   restored board matches; at the budget both agree byte-for-byte. *)
let test_snapshot_restore_determinism () =
  let budget = 4_000_000 in
  let original = build_sleepy () in
  let parked = ref (build_sleepy ()) in
  List.iter
    (fun park_at ->
      finish_to original park_at 10_000;
      finish_to !parked park_at 3_333;
      let k = !parked.Tock_boards.Board.kernel in
      let at = Printf.sprintf "park at %d" park_at in
      Alcotest.(check bool) (at ^ ": resumable") true (Tock.Kernel.resumable k);
      let w = Tock.Kernel.freeze k in
      Alcotest.(check int) (at ^ ": witness clock") park_at (witness_clock w);
      Alcotest.(check string) (at ^ ": witness ignores earlier resumes")
        (Tock.Kernel.freeze original.Tock_boards.Board.kernel) w;
      let restored = build_sleepy () in
      (match
         Tock.Kernel.thaw restored.Tock_boards.Board.kernel
           ~cap:restored.Tock_boards.Board.main_cap w
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: thaw: %s" at e);
      Alcotest.(check string) (at ^ ": restored state matches")
        (fingerprint original) (fingerprint restored);
      parked := restored)
    [ 700_000; 1_800_000; 3_300_000 ];
  finish_to original budget 10_000;
  finish_to !parked budget 3_333;
  Alcotest.(check string) "resumed == continuously stepped"
    (fingerprint original) (fingerprint !parked);
  Alcotest.(check string) "final freezes equal"
    (Tock.Kernel.freeze original.Tock_boards.Board.kernel)
    (Tock.Kernel.freeze !parked.Tock_boards.Board.kernel)

(* Direct thaw: patch a fresh board from the witness in O(state) and
   land byte-identical to the board that never parked, including the
   witness a re-freeze produces. A second board stepped to the park
   clock with a different chopping is the replay oracle: it must freeze
   to the same bytes, so the witness is a function of history alone. *)
let test_thaw_determinism () =
  let park_at = 700_000 and budget = 2_000_000 in
  let original = build_sleepy () in
  finish_to original park_at 10_000;
  let w = Tock.Kernel.freeze original.Tock_boards.Board.kernel in
  (* Freezes are pure observations: retaking one changes nothing. *)
  Alcotest.(check string) "freeze is stable" w
    (Tock.Kernel.freeze original.Tock_boards.Board.kernel);
  let replayed = build_sleepy () in
  finish_to replayed park_at 3_333;
  Alcotest.(check string) "replay oracle freezes to the witness" w
    (Tock.Kernel.freeze replayed.Tock_boards.Board.kernel);
  let thawed = build_sleepy () in
  (match
     Tock.Kernel.thaw thawed.Tock_boards.Board.kernel
       ~cap:thawed.Tock_boards.Board.main_cap w
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "thaw: %s" e);
  Alcotest.(check string) "thawed state matches" (fingerprint original)
    (fingerprint thawed);
  (* The strongest check: re-freezing the thawed board reproduces the
     witness bit-for-bit — every serialized fact survived the round
     trip. *)
  Alcotest.(check string) "re-freeze reproduces witness" w
    (Tock.Kernel.freeze thawed.Tock_boards.Board.kernel);
  finish_to original budget 10_000;
  finish_to thawed budget 3_333;
  Alcotest.(check string) "thawed == continuously stepped"
    (fingerprint original) (fingerprint thawed);
  Alcotest.(check string) "final freezes equal"
    (Tock.Kernel.freeze original.Tock_boards.Board.kernel)
    (Tock.Kernel.freeze thawed.Tock_boards.Board.kernel)

(* The two sides of [Kernel.resumable] on the sleepy board, stepped in
   the scheduler's way. Its first idle point is a UART wait after its
   first print, before any checkpoint: not resumable, and thaw of that
   freeze declines. Its second is the checkpoint sleep: resumable, and
   thaw reproduces the witness — also when frozen 100 cycles before the
   wake, less than the resume prologue would charge, so the wake must
   not fire under it. *)
let test_resumable_freeze_points () =
  let b = build_sleepy () in
  let k = b.Tock_boards.Board.kernel and cap = b.Tock_boards.Board.main_cap in
  let rec next_idle () =
    let now = Tock_hw.Sim.now b.Tock_boards.Board.sim in
    match Tock.Kernel.run_to_deadline k ~cap ~deadline:(now + 10_000) with
    | `Budget -> next_idle ()
    | `Asleep wake -> (Tock_hw.Sim.now b.Tock_boards.Board.sim, wake)
    | `Stalled -> Alcotest.fail "sleepy board stalled"
  in
  let thaw_of_freeze () =
    let w = Tock.Kernel.freeze k in
    let fresh = build_sleepy () in
    match
      Tock.Kernel.thaw fresh.Tock_boards.Board.kernel
        ~cap:fresh.Tock_boards.Board.main_cap w
    with
    | Ok () ->
        if Tock.Kernel.freeze fresh.Tock_boards.Board.kernel <> w then
          Alcotest.fail "re-freeze of thawed board <> witness";
        Ok ()
    | Error _ as e -> e
  in
  let ((_, wake) as idle) = next_idle () in
  Alcotest.(check (pair int int)) "first idle: UART wait" (980, 24_386) idle;
  Alcotest.(check bool) "UART wait is not resumable" false
    (Tock.Kernel.resumable k);
  (match thaw_of_freeze () with
  | Ok () -> Alcotest.fail "thaw accepted a freeze inside a UART wait"
  | Error _ -> ());
  Tock.Kernel.sleep_to k ~cap wake;
  let idle = next_idle () in
  Alcotest.(check (pair int int)) "second idle: checkpoint sleep"
    (25_471, 1_560_576) idle;
  Alcotest.(check bool) "checkpoint sleep is resumable" true
    (Tock.Kernel.resumable k);
  (match thaw_of_freeze () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "thaw at the checkpoint sleep: %s" e);
  let _, wake = idle in
  Tock.Kernel.sleep_to k ~cap (wake - 100);
  Alcotest.(check bool) "still resumable just before the wake" true
    (Tock.Kernel.resumable k);
  match thaw_of_freeze () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "thaw 100 cycles before the wake: %s" e

let expect_err name f =
  match f () with
  | Ok _ -> Alcotest.failf "%s: corrupt input accepted" name
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: diagnostic not empty" name)
        true
        (String.length e > 0)
  | exception e ->
      Alcotest.failf "%s: raised %s instead of Error" name
        (Printexc.to_string e)

let with_word s at v =
  let b = Bytes.of_string s in
  Bytes.set_int64_le b at (Int64.of_int v);
  Bytes.to_string b

let boundary_words len =
  [ max_int; max_int - 1; max_int - 2; max_int - 8; min_int; -1; len; len + 1 ]

(* The subject of the decoder tests: the sleepy board at 700k cycles,
   its witness, its packed kernel metrics, and a flight artifact that
   carries both. *)
let sleepy_subject =
  lazy
    (let b = build_sleepy () in
     finish_to b 700_000 10_000;
     let k = b.Tock_boards.Board.kernel in
     let w = Tock.Kernel.freeze k in
     let packed = Tock_obs.Metrics.packed_of (Tock.Kernel.metrics k) in
     let event fe_ts fe_kind fe_text =
       { Flight.fe_ts; fe_tid = 1; fe_kind; fe_phase = "i"; fe_dur = 0;
         fe_arg = 7; fe_text }
     in
     let art =
       Flight.encode
         {
           Flight.fa_cause =
             Flight.Fault { fl_proc = "sleepy"; fl_reason = "app panic: probe" };
           fa_board = 3;
           fa_seed = 0xFAFA_01L;
           fa_clock = 700_000;
           fa_clock_hz = Tock_hw.Sim.clock_hz b.Tock_boards.Board.sim;
           fa_events =
             [ event 690_000 "syscall" "yield"; event 700_000 "fault" "" ];
           fa_metrics = Some packed;
           fa_witness = Some w;
         }
     in
     (w, packed, art))

(* A failed thaw may leave the board half-patched, so every probe gets
   a fresh one. *)
let thaw_fresh s =
  let b = build_sleepy () in
  Tock.Kernel.thaw b.Tock_boards.Board.kernel ~cap:b.Tock_boards.Board.main_cap
    s

(* Every (name, payload) of a valid frame, in frame order. *)
let sections ~magic s =
  match decode_frame ~magic s with
  | Error e -> Alcotest.failf "%s frame: %s" magic e
  | Ok f ->
      List.filter_map
        (fun name ->
          Result.to_option (Tock_obs.Frame.read f name Tock_obs.Frame.rest)
          |> Option.map (fun p -> (name, p)))
        (known_sections magic)

(* Re-frame edited section payloads under fresh digests, so an edit
   gets past the frame checks to the section decoders. *)
let reseal ~magic secs =
  Tock_obs.Frame.encode magic
    (List.map (fun (name, payload) -> (name, fun b -> Buffer.add_string b payload)) secs)

(* Which part of a frame holds each byte, by the documented layout:
   the magic, the section count, one table entry per section (name
   length, name, payload length, MD5), then the payloads in table
   order. [`Header], [`Entry name] or [`Payload name]. *)
let owners ~magic s =
  let secs = sections ~magic s in
  let owner = Array.make (String.length s) `Header in
  let at = ref 16 in
  List.iter
    (fun (name, _) ->
      let n = 32 + String.length name in
      Array.fill owner !at n (`Entry name);
      at := !at + n)
    secs;
  List.iter
    (fun (name, payload) ->
      let n = String.length payload in
      Array.fill owner !at n (`Payload name);
      at := !at + n)
    secs;
  Alcotest.(check int) (magic ^ ": layout covers the frame") (String.length s)
    !at;
  owner

(* Every error names the part of the frame it was found in: a payload
   byte its own section; a table entry its section or the table. *)
let names_owner what owner e =
  let ok =
    match owner with
    | `Header -> contains e "frame header" || contains e "section table"
    | `Entry name ->
        contains e (Printf.sprintf "%S" name) || contains e "section table"
    | `Payload name -> contains e (Printf.sprintf "section %S" name)
  in
  if not ok then Alcotest.failf "%s: error %S does not name its section" what e

(* The witness format, pinned: fleet boards of all three mixes and the
   fault board, each stepped in 250k-cycle quanta to a fixed clock,
   freeze to these MD5s. Between them they hold a live process
   [Yielded] at its checkpoint sleep, one [Yielded] elsewhere with a
   read-only allow, [Terminated] and [Faulted] records, a live
   subscription and nonzero RAM runs; the test checks that coverage
   too. Moving any byte of any record fails here. *)
let golden_witnesses =
  [
    (0, 1_000_000, "67ca6bc67d4029218a8533951504486e");
    (1, 1_000_000, "46e7715be73aeed7279a873665056ad9");
    (1, 2_000_000, "b52bbc4d4c259c3c7475da5b82477e28");
    (2, 1_000_000, "6c70a596e1b17ffda3701286ca4ffb4b");
    (3, 1_000_000, "fd470cb61a23e5dbecc1f4b1b6254563");
  ]

let test_golden_witnesses () =
  let cfg = { Fleet.default with Fleet.boards = 4; fault_board = Some 3 } in
  let workloads = Fleet.build_workloads () in
  let seen = Hashtbl.create 8 in
  let see what = Hashtbl.replace seen what () in
  List.iter
    (fun (idx, clock, md5) ->
      let b = Fleet.build_board cfg workloads idx in
      finish_to b clock 250_000;
      let k = b.Tock_boards.Board.kernel in
      Alcotest.(check string)
        (Printf.sprintf "board %d at %d" idx clock)
        md5
        (Digest.to_hex (Digest.string (Tock.Kernel.freeze k)));
      List.iter
        (fun p ->
          (match Tock.Process.state p with
          | Tock.Process.Yielded when Tock.Kernel.resumable k ->
              see "Yielded at the checkpoint sleep"
          | Tock.Process.Terminated _ -> see "Terminated"
          | Tock.Process.Faulted _ -> see "Faulted"
          | _ -> ());
          if Bytes.exists (( <> ) '\x00') (Tock.Process.ram_bytes p) then
            see "RAM run";
          let allow =
            Tock.Process.allow_get p ~kind:`Ro ~driver:1 ~allow_num:1
          in
          if allow.Tock.Process.a_len > 0 then see "allow";
          (* Swap the alarm subscription out and back: the witness is
             already taken. *)
          let up =
            Tock.Process.subscribe_swap p ~driver:0 ~subscribe_num:0
              { Tock.Process.fnptr = 0; appdata = 0 }
          in
          ignore (Tock.Process.subscribe_swap p ~driver:0 ~subscribe_num:0 up);
          if up.Tock.Process.fnptr <> 0 then see "subscription")
        (Tock.Kernel.processes k))
    golden_witnesses;
  List.iter
    (fun what ->
      if not (Hashtbl.mem seen what) then
        Alcotest.failf "no golden witness holds a %s record" what)
    [ "Yielded at the checkpoint sleep"; "Terminated"; "Faulted"; "RAM run";
      "allow"; "subscription" ]

(* The flash part's counters ride in the witness beside its pages: a
   lossy write, an erase and a dirty page, then a park at a quiescent
   checkpoint sleep, and the thawed board reads the same wear, dirty
   writes and page bytes. A witness in the older layout (pages only)
   is an [Error] naming the flash section. *)
let test_flash_counters_survive_thaw () =
  let build () =
    let sim = Tock_hw.Sim.create ~seed:7L ~trace_capacity:0 () in
    let b = Tock_boards.Board.build (Tock_hw.Chip.sam4l_like sim) in
    ignore
      (add_app_exn b ~name:"counter"
         (Tock_userland.Apps.counter ~n:8 ~period_ticks:2000));
    b
  in
  let flash_of b = b.Tock_boards.Board.chip.Tock_hw.Chip.flash in
  let counters b =
    let f = flash_of b in
    ( Tock_hw.Flash_ctrl.wear f ~page:100,
      Tock_hw.Flash_ctrl.dirty_writes f,
      Bytes.to_string (Tock_hw.Flash_ctrl.read_page_sync f ~page:101) )
  in
  let b = build () in
  let k = b.Tock_boards.Board.kernel and cap = b.Tock_boards.Board.main_cap in
  let flash = flash_of b in
  let settle = function
    | Ok () ->
        ignore
          (Tock_boards.Board.run_until b (fun () ->
               not (Tock_hw.Flash_ctrl.busy flash)))
    | Error e -> Alcotest.failf "flash: %s" (Tock_hw.Completion.text e)
  in
  settle (Tock_hw.Flash_ctrl.write_page flash ~page:100 [ (Bytes.make 512 '\x00', 0, 512) ]);
  settle (Tock_hw.Flash_ctrl.write_page flash ~page:100 [ (Bytes.make 512 '\xff', 0, 512) ]);
  settle (Tock_hw.Flash_ctrl.erase_page flash ~page:100);
  settle (Tock_hw.Flash_ctrl.write_page flash ~page:101 [ (Bytes.make 512 '\x5a', 0, 512) ]);
  let rec park () =
    let now = Tock_hw.Sim.now b.Tock_boards.Board.sim in
    match Tock.Kernel.run_to_deadline k ~cap ~deadline:(now + 10_000) with
    | `Budget -> park ()
    | `Asleep wake ->
        if not (Tock.Kernel.resumable k) then begin
          Tock.Kernel.sleep_to k ~cap wake;
          park ()
        end
    | `Stalled -> Alcotest.fail "board stalled before a checkpoint sleep"
  in
  park ();
  let ((wear, dirty, _) as before) = counters b in
  Alcotest.(check (pair int int)) "wear and dirty writes before freeze" (1, 1)
    (wear, dirty);
  let w = Tock.Kernel.freeze k in
  let thawed = build () in
  (match
     Tock.Kernel.thaw thawed.Tock_boards.Board.kernel
       ~cap:thawed.Tock_boards.Board.main_cap w
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "thaw: %s" e);
  Alcotest.(check (triple int int string)) "counters and pages after thaw"
    before (counters thawed);
  Alcotest.(check string) "re-freeze reproduces witness" w
    (Tock.Kernel.freeze thawed.Tock_boards.Board.kernel);
  let pages_only payload =
    let open Tock_obs.Frame in
    match
      parse payload (fun r ->
          let pages = list r ~min:16 (fun r -> let page = int r in (page, string r)) in
          ignore (rest r);
          pages)
    with
    | Error e -> Alcotest.failf "flash section: %s" e
    | Ok pages ->
        let b = Buffer.create 1024 in
        add_list b (fun (page, data) -> add_int b page; add_string b data) pages;
        Buffer.contents b
  in
  let older =
    reseal ~magic:Tock.Witness.magic
      (List.map
         (fun (name, payload) ->
           (name, if name = "flash" then pages_only payload else payload))
         (sections ~magic:Tock.Witness.magic w))
  in
  let fresh = build () in
  match
    Tock.Kernel.thaw fresh.Tock_boards.Board.kernel
      ~cap:fresh.Tock_boards.Board.main_cap older
  with
  | Ok () -> Alcotest.fail "a witness without the flash counters thawed"
  | Error e -> check_contains ~msg:"older witness" e "section \"flash\""

(* Any changed byte of a real witness, and of a flight artifact that
   carries it, is an [Error] naming the section that holds it: every
   single-byte flip, every truncation, a one-byte extension, and every
   boundary-word substitution that changes a byte. *)
let test_witness_rejects_corruption () =
  let w, _, art = Lazy.force sleepy_subject in
  let check ~magic name s decode =
    let owner = owners ~magic s in
    let reject what corrupt ~at =
      match decode corrupt with
      | Ok _ -> Alcotest.failf "%s: %s accepted" name what
      | Error e -> Option.iter (fun i -> names_owner what owner.(i) e) at
      | exception x ->
          Alcotest.failf "%s: %s raised %s" name what (Printexc.to_string x)
    in
    String.iteri
      (fun i c ->
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code c lxor 0x20));
        reject (Printf.sprintf "byte %d flipped" i) (Bytes.to_string b)
          ~at:(Some i))
      s;
    for k = 0 to String.length s - 1 do
      reject (Printf.sprintf "truncation to %d bytes" k) (String.sub s 0 k)
        ~at:None
    done;
    reject "one-byte extension" (s ^ "\x00") ~at:None;
    let at = ref 0 in
    while !at + 8 <= String.length s do
      List.iter
        (fun v ->
          let s' = with_word s !at v in
          if s' <> s then
            reject (Printf.sprintf "word at %d := %d" !at v) s' ~at:None)
        (boundary_words (String.length s));
      at := !at + 8
    done
  in
  check ~magic:Tock.Witness.magic "thaw" w thaw_fresh;
  check ~magic:Flight.magic "Flight.decode" art Flight.decode

(* Behind the digests, the section decoders stay total. Each boundary
   word replaces every 8-byte-aligned word of one section in turn, and
   the frame is re-sealed so the substitution reaches thaw,
   [Flight.decode] and [packed_of_string]: they may accept it or
   return [Error], never raise. Two targeted re-sealed probes must be
   refused: a process-name length of [max_int-3] and a RAM-run offset
   of [max_int-1], where a bound written as [pos + n > len] would wrap
   negative and let the read through. *)
let test_decoders_total_on_boundary_words () =
  let w, packed, art = Lazy.force sleepy_subject in
  let sweep name ~magic s decode =
    let secs = sections ~magic s in
    List.iter
      (fun (sec, payload) ->
        let at = ref 0 in
        while !at + 8 <= String.length payload do
          List.iter
            (fun v ->
              let edited =
                List.map
                  (fun (n, p) -> (n, if n = sec then with_word p !at v else p))
                  secs
              in
              match decode (reseal ~magic edited) with
              | Ok () | Error _ -> ()
              | exception e ->
                  Alcotest.failf "%s: %s word at %d := %d raised %s" name sec
                    !at v (Printexc.to_string e))
            (boundary_words (String.length payload));
          at := !at + 8
        done)
      secs
  in
  sweep "thaw" ~magic:Tock.Witness.magic w thaw_fresh;
  sweep "Flight.decode" ~magic:Flight.magic art (fun s ->
      Result.map ignore (Flight.decode s));
  (* A named packed image has no frame of its own. *)
  let image = packed_image packed in
  let at = ref 0 in
  while !at + 8 <= String.length image do
    List.iter
      (fun v ->
        match Tock_obs.Metrics.packed_of_string (with_word image !at v) with
        | Ok p -> ignore (Tock_obs.Metrics.unpack p)
        | Error _ -> ()
        | exception e ->
            Alcotest.failf "packed_of_string: word at %d := %d raised %s" !at
              v (Printexc.to_string e))
      (boundary_words (String.length image));
    at := !at + 8
  done;
  (* The targeted probes. The [procs] section opens with the process
     count, then the first record's name length. *)
  let secs = sections ~magic:Tock.Witness.magic w in
  let procs = List.assoc Tock.Witness.procs secs in
  let resealed_procs p =
    reseal ~magic:Tock.Witness.magic
      (List.map
         (fun (n, q) -> (n, if n = Tock.Witness.procs then p else q))
         secs)
  in
  Alcotest.(check int) "process name length field" (String.length "sleepy")
    (Int64.to_int (String.get_int64_le procs 8));
  expect_err "thaw (string length max_int-3)" (fun () ->
      thaw_fresh (resealed_procs (with_word procs 8 (max_int - 3))));
  (* The first RAM run: [ram length; run count; offset; length; bytes],
     its offset being the first nonzero byte of the process's RAM. *)
  let b = build_sleepy () in
  finish_to b 700_000 10_000;
  let ram =
    Tock.Process.ram_bytes (List.hd (Tock.Kernel.processes b.Tock_boards.Board.kernel))
  in
  let first_nz =
    let rec go i = if Bytes.get ram i <> '\x00' then i else go (i + 1) in
    go 0
  in
  let word i = Int64.to_int (String.get_int64_le procs i) in
  let rec ram_at i =
    if i + 24 > String.length procs then Alcotest.fail "RAM image not found"
    else if word i = Bytes.length ram && word (i + 16) = first_nz then i
    else ram_at (i + 1)
  in
  expect_err "thaw (RAM-run offset max_int-1)" (fun () ->
      thaw_fresh (resealed_procs (with_word procs (ram_at 0 + 16) (max_int - 1))))

(* Arbitrary bytes, and well-formed frames around random section
   payloads, never make a decoder raise. Frames reuse the real witness
   and flight sections (so they reach the section decoders): each is
   dropped one time in ten, and its payload kept, replaced by random
   bytes, cut short, or given one random byte. *)
let qcheck_decoders_total =
  let gen =
    QCheck2.Gen.(
      let bytes = string_size ~gen:char (int_bound 96) in
      let payload real =
        oneof
          [
            return real;
            bytes;
            map (fun k -> String.sub real 0 (min k (String.length real)))
              (int_bound 64);
            map2
              (fun i c ->
                if real = "" then String.make 1 c
                else
                  String.mapi
                    (fun j x -> if j = i mod String.length real then c else x)
                    real)
              nat char;
          ]
      in
      oneof
        [
          bytes;
          map2 (fun m s -> m ^ s)
            (oneofl [ Tock.Witness.magic; Flight.magic ])
            bytes;
          (let* witness = bool in
           let w, _, art = Lazy.force sleepy_subject in
           let magic, s =
             if witness then (Tock.Witness.magic, w) else (Flight.magic, art)
           in
           let keep = frequency [ (9, return true); (1, return false) ] in
           let section (name, p) =
             map2 (fun k p -> if k then Some (name, p) else None) keep (payload p)
           in
           map
             (fun secs -> reseal ~magic (List.filter_map Fun.id secs))
             (flatten_l (List.map section (sections ~magic s))));
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"decoders never raise (qcheck)"
       ~print:String.escaped gen (fun s ->
         List.iter
           (fun magic -> ignore (decode_frame ~magic s))
           [ Tock.Witness.magic; Flight.magic ];
         ignore (thaw_fresh s);
         ignore (Flight.decode s);
         (match Tock_obs.Metrics.packed_of_string s with
         | Ok p -> ignore (Tock_obs.Metrics.unpack p)
         | Error _ -> ());
         true))

(* Property: for random workloads, sim seeds and park points,
   [Kernel.resumable] holds exactly when freeze -> thaw onto a fresh
   board succeeds, and a successful thaw reproduces the witness
   byte-for-byte and tracks the original under further execution. This
   is the fleet park contract: it parks only resumable boards, and
   they all come back. The park point is reached either the fleet's
   way ([run_to_deadline], stopping asleep) or through
   [Kernel.run_cycles], which can stop just after an event fires, with
   its interrupt still pending. *)
let prop_freeze_thaw_contract =
  let gen =
    QCheck2.Gen.(
      tup5 (int_range 0 2) (int_range 50 800) (int_range 20_000 1_200_000)
        (int_range 1 0xFFFF) bool)
  in
  let build (shape, period, _park_at, seed, _) =
    let sim =
      Tock_hw.Sim.create ~seed:(Int64.of_int (0xBEE0000 + seed))
        ~trace_capacity:0 ()
    in
    let chip = Tock_hw.Chip.sam4l_like sim in
    let board = Tock_boards.Board.build chip in
    let apps =
      match shape with
      | 0 ->
          [ ("counter", Tock_userland.Apps.counter ~n:4 ~period_ticks:period);
            ("hello", Tock_userland.Apps.hello) ]
      | 1 ->
          [ ("blink", Tock_userland.Apps.blink ~led:0 ~period_ticks:period
               ~blinks:6);
            ("sensors", Tock_userland.Apps.sensor_logger ~samples:3
               ~period_ticks:(period * 3)) ]
      | _ ->
          [ ("kv", Tock_userland.Apps.kv_user ~rounds:2);
            ("counter", Tock_userland.Apps.counter ~n:2 ~period_ticks:period) ]
    in
    List.iter
      (fun (name, app) ->
        match Tock_boards.Board.add_app board ~name app with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "add_app %s: %s" name (Tock.Error.to_string e))
      apps;
    board
  in
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:25
       ~name:"freeze/thaw contract (random workload, park point)"
       ~print:(fun (shape, period, park_at, seed, run_cycles) ->
         Printf.sprintf "shape=%d period=%d park_at=%d seed=%d run_cycles=%b"
           shape period park_at seed run_cycles)
       gen
    (fun ((_, _, park_at, _, run_cycles) as case) ->
      let original = build case in
      if run_cycles then Tock_boards.Board.run_cycles original park_at
      else finish_to original park_at 10_000;
      let park_at = Tock_hw.Sim.now original.Tock_boards.Board.sim in
      let resumable = Tock.Kernel.resumable original.Tock_boards.Board.kernel in
      let w = Tock.Kernel.freeze original.Tock_boards.Board.kernel in
      let fresh = build case in
      (match
         Tock.Kernel.thaw fresh.Tock_boards.Board.kernel
           ~cap:fresh.Tock_boards.Board.main_cap w
       with
      | Ok () ->
          if not resumable then
            QCheck2.Test.fail_report "thaw accepted a board resumable rejects";
          if Tock.Kernel.freeze fresh.Tock_boards.Board.kernel <> w then
            QCheck2.Test.fail_report "re-freeze of thawed board <> witness";
          let deadline = park_at + 400_000 in
          finish_to original deadline 10_000;
          finish_to fresh deadline 7_001;
          if fingerprint original <> fingerprint fresh then
            QCheck2.Test.fail_reportf
              "thawed board diverged from original\noriginal: %s\nthawed:   %s"
              (fingerprint original) (fingerprint fresh)
      | Error e ->
          if resumable then
            QCheck2.Test.fail_reportf "thaw declined a resumable board: %s" e);
      true)

let sched_counter sched name =
  match List.assoc_opt name sched with
  | Some (Tock_obs.Metrics.Counter v) -> v
  | _ -> Alcotest.failf "scheduler metric %s missing" name

(* Fleet-level park/resume: identical results with parking on or off,
   at 1, 2 and 4 domains, with every resume cross-checked against the
   stored witness ([verify_park]) — and parking must actually have
   happened for the run to be evidence of anything.
   [park_min_quanta = 50] keeps the 50k-cycle threshold above both the
   4096-cycle console busy-retry naps and the ~25k-cycle UART
   transmission waits (where an app is mid-print, before any
   checkpoint), so parks land on real alarm sleeps where every live
   app sits at a checkpoint. *)
let test_park_resume_identical () =
  let cfg =
    small
      { Fleet.default with
        boards = 8; group_size = 1; batch = 1_000; park_min_quanta = 50 }
  in
  let plain = Fleet.run_fleet { cfg with park = false } in
  let mm = Tock_obs.Metrics.render_json plain.Fleet.fr_metrics in
  List.iter
    (fun domains ->
      let parked =
        Fleet.run_fleet { cfg with park = true; verify_park = true; domains }
      in
      check_identical
        (Printf.sprintf "park on/off @ %d domains" domains)
        plain.Fleet.fr_stats parked.Fleet.fr_stats;
      Alcotest.(check string)
        (Printf.sprintf "merged metrics @ %d domains" domains)
        mm
        (Tock_obs.Metrics.render_json parked.Fleet.fr_metrics);
      let parks = sched_counter parked.Fleet.fr_sched "fleet.sched.board_parks" in
      Alcotest.(check bool) "parking occurred" true (parks > 0);
      Alcotest.(check int) "every park resumed" parks
        (sched_counter parked.Fleet.fr_sched "fleet.sched.board_resumes");
      Alcotest.(check bool) "resume skipped cycles in O(state)" true
        (sched_counter parked.Fleet.fr_sched "fleet.sched.resume_cycles" > 0);
      Alcotest.(check bool) "witness bytes accounted" true
        (sched_counter parked.Fleet.fr_sched "fleet.sched.witness_bytes" > 0))
    [ 1; 2; 4 ]

(* An aggressive threshold ([park_min_quanta = 2] at batch 1000) makes
   boards park candidates inside UART transmission waits and console
   busy-retry naps, where a live app is mid-I/O with no checkpoint.
   Those are not resumable, so they stay live; the boards that do park
   sit in their checkpoint sleep, and every one of them thaws (a thaw
   [Error] would raise) without changing a single result. *)
let test_park_only_resumable () =
  let cfg =
    small { Fleet.default with boards = 8; group_size = 1; batch = 1_000 }
  in
  let plain = Fleet.run_fleet { cfg with park = false } in
  let parked = Fleet.run_fleet { cfg with park = true; verify_park = true } in
  check_identical "aggressive parking" plain.Fleet.fr_stats
    parked.Fleet.fr_stats;
  let parks = sched_counter parked.Fleet.fr_sched "fleet.sched.board_parks" in
  Alcotest.(check bool) "parking occurred" true (parks > 0);
  Alcotest.(check int) "every park resumed" parks
    (sched_counter parked.Fleet.fr_sched "fleet.sched.board_resumes")

(* The paper-scale smoke: 100k boards materialize one at a time, the
   blink mix sleeps long enough to be frozen into byte witnesses, and
   every one of those boards must thaw before retiring into packed
   stats — the whole fleet must fit and account. *)
let test_100k_construction_park_smoke () =
  let boards = 100_000 in
  let cfg =
    {
      Fleet.default with
      boards;
      group_size = 1;
      cycles = 160_000;
      batch = 50_000;
      park = true;
    }
  in
  let r = Fleet.run_fleet cfg in
  Alcotest.(check int) "all boards reported" boards
    (Array.length r.Fleet.fr_stats);
  let parks = sched_counter r.Fleet.fr_sched "fleet.sched.board_parks" in
  Alcotest.(check bool) "freeze/thaw exercised at scale" true (parks > 0);
  Alcotest.(check int) "every park resumed" parks
    (sched_counter r.Fleet.fr_sched "fleet.sched.board_resumes");
  Array.iteri
    (fun i (bs : Fleet.board_stats) ->
      if bs.Fleet.bs_board <> i then
        Alcotest.failf "board %d out of place (slot %d)" bs.Fleet.bs_board i;
      if bs.Fleet.bs_cycles <= 0 then
        Alcotest.failf "board %d made no progress" i)
    r.Fleet.fr_stats;
  Alcotest.(check int) "every group accounted" (Fleet.group_count cfg)
    (sched_counter r.Fleet.fr_sched "fleet.sched.groups_run");
  (* The merged snapshot covers the whole fleet's syscall count. *)
  (match List.assoc_opt "kernel.syscalls" r.Fleet.fr_metrics with
  | Some (Tock_obs.Metrics.Counter v) ->
      Alcotest.(check int) "merged syscalls" (Fleet.total_syscalls r.Fleet.fr_stats) v
  | _ -> Alcotest.fail "kernel.syscalls missing from merged metrics")

let test_fleet_smoke () =
  (* Tiny 2-domain fleet sharing one work list: every board makes
     progress, accounting is sane, and the scheduler metrics cover every
     group. *)
  let cfg =
    small { Fleet.default with boards = 6; domains = 2; group_size = 1 }
  in
  let { Fleet.fr_stats = stats; fr_sched = sched; _ } = Fleet.run_fleet cfg in
  Array.iter
    (fun (bs : Fleet.board_stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "board %d ran" bs.Fleet.bs_board)
        true (bs.Fleet.bs_cycles > 0);
      Alcotest.(check bool) "made syscalls" true (bs.Fleet.bs_syscalls > 0);
      Alcotest.(check int) "cycles = active + sleep" bs.Fleet.bs_cycles
        (bs.Fleet.bs_active_cycles + bs.Fleet.bs_sleep_cycles);
      Alcotest.(check int) "digest is md5 hex" 32
        (String.length bs.Fleet.bs_output_digest))
    stats;
  Alcotest.(check bool) "aggregate cycles" true (Fleet.total_cycles stats > 0);
  let find name =
    match List.assoc_opt name sched with
    | Some (Tock_obs.Metrics.Counter v) -> v
    | _ -> Alcotest.failf "scheduler metric %s missing" name
  in
  Alcotest.(check int) "every group accounted" (Fleet.group_count cfg)
    (find "fleet.sched.groups_run");
  Alcotest.(check bool) "dispatches cover groups" true
    (find "fleet.sched.dispatches" >= Fleet.group_count cfg)

(* Health rollups are streaming, commutative folds of retiring boards:
   the rendered report must be byte-identical at 1, 2 and 4 domains,
   and with parking on — domain placement and freeze/thaw may never
   leak into a verdict. *)
let test_health_identical_across_domains () =
  let cfg =
    small { Fleet.default with boards = 9; group_size = 1; health = true }
  in
  let render (r : Fleet.fleet_result) =
    match r.Fleet.fr_health with
    | Some rep -> Fleet.Rollup.render_json rep
    | None -> Alcotest.fail "fr_health missing with health = true"
  in
  let base = Fleet.run_fleet { cfg with domains = 1 } in
  let expect = render base in
  (match base.Fleet.fr_health with
  | Some rep ->
      Alcotest.(check int) "boards counted" 9 rep.Fleet.Rollup.rp_boards;
      (* every stock SLO against every workload cohort *)
      Alcotest.(check int) "checks evaluated"
        (List.length Fleet.default_slos * 3)
        (List.length rep.Fleet.Rollup.rp_checks);
      Alcotest.(check string) "fault-free fleet is healthy" "healthy"
        (Fleet.Rollup.verdict_name rep.Fleet.Rollup.rp_verdict)
  | None -> ());
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "health report @ %d domains" domains)
        expect
        (render (Fleet.run_fleet { cfg with domains })))
    [ 2; 4 ];
  (* parking changes the memory/wall-time shape only, never the report *)
  Alcotest.(check string) "health report with parking" expect
    (render
       (Fleet.run_fleet
          { cfg with domains = 2; park = true; batch = 1_000;
            park_min_quanta = 50 }))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A fresh flight-artifact directory, removed with its contents after. *)
let with_flight_dir f =
  let dir = Filename.temp_file "tock-flight" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* Radio groups trace only while the flight recorder is armed. Arming
   it gives every group clock a ring, and that ring must be pure
   observation: stats and merged metrics are byte-identical with it on
   or off, for radio groups and the leftover single board alike, at 1
   and 2 domains. *)
let test_radio_flight_ring_identical () =
  let cfg = small { Fleet.default with boards = 7; group_size = 3 } in
  let plain = Fleet.run_fleet cfg in
  let mm = Tock_obs.Metrics.render_json plain.Fleet.fr_metrics in
  with_flight_dir @@ fun dir ->
  List.iter
    (fun domains ->
      let armed = Fleet.run_fleet { cfg with domains; flight_dir = Some dir } in
      check_identical
        (Printf.sprintf "flight ring on/off @ %d domains" domains)
        plain.Fleet.fr_stats armed.Fleet.fr_stats;
      Alcotest.(check string)
        (Printf.sprintf "merged metrics @ %d domains" domains)
        mm
        (Tock_obs.Metrics.render_json armed.Fleet.fr_metrics);
      Alcotest.(check int) "fault-free run captures nothing" 0
        (List.length armed.Fleet.fr_flights))
    [ 1; 2 ];
  (* Only single boards are sampled: board 6 is the leftover single but
     lies past [trace_boards], so the export has no board lane. *)
  let traced =
    Fleet.run_fleet { cfg with trace_capacity = 1024; trace_boards = 2 }
  in
  check_identical "traced" plain.Fleet.fr_stats traced.Fleet.fr_stats;
  Alcotest.(check (pair int int)) "lanes exported" (1, 0)
    traced.Fleet.fr_trace_lanes

(* Depth-first dispatch, read from the domain trace lanes: once a domain
   dispatches another group, a group it left is dispatched again only
   after its own resume. The shape parks often (batch 5,000, parking at
   one quantum), so an interleaving scheduler would hold many groups
   live at once; results must still equal a park-off run. *)
let test_depth_first_dispatch () =
  let cfg =
    { Fleet.default with
      boards = 64; group_size = 1; cycles = 4_000_000; batch = 5_000;
      park_min_quanta = 1 }
  in
  let plain = Fleet.run_fleet cfg in
  let mm = Tock_obs.Metrics.render_json plain.Fleet.fr_metrics in
  List.iter
    (fun domains ->
      let r =
        Fleet.run_fleet
          { cfg with domains; park = true; trace_capacity = 1 lsl 14 }
      in
      let at = Printf.sprintf " @ %d domains" domains in
      check_identical ("park on/off" ^ at) plain.Fleet.fr_stats r.Fleet.fr_stats;
      Alcotest.(check string) ("merged metrics" ^ at) mm
        (Tock_obs.Metrics.render_json r.Fleet.fr_metrics);
      Alcotest.(check int) ("every group ran" ^ at) 64
        (sched_counter r.Fleet.fr_sched "fleet.sched.groups_run");
      Alcotest.(check bool) ("parking occurred" ^ at) true
        (sched_counter r.Fleet.fr_sched "fleet.sched.board_parks" > 0);
      let json =
        match r.Fleet.fr_trace_json with
        | Some j -> parse_json j
        | None -> Alcotest.fail "fr_trace_json missing with trace_capacity > 0"
      in
      let int k j = int_of_float (as_num (obj_get k j)) in
      Alcotest.(check int) ("no dropped events" ^ at) 0
        (int "dropped_events" (obj_get "otherData" json));
      let events = as_arr (obj_get "traceEvents" json) in
      for d = 0 to domains - 1 do
        (* Groups this domain left for another one, not resumed since. *)
        let left = Hashtbl.create 64 and current = ref (-1) in
        List.iter
          (fun e ->
            if as_str (obj_get "ph" e) <> "M" && int "pid" e = d then
              let g = int "arg" (obj_get "args" e) in
              match as_str (obj_get "cat" e) with
              | "resume" -> Hashtbl.remove left g
              | "dispatch" ->
                  if Hashtbl.mem left g then
                    Alcotest.failf
                      "domain %d dispatched group %d again before its resume" d g;
                  if !current >= 0 && !current <> g then
                    Hashtbl.replace left !current ();
                  current := g
              | _ -> ())
          events
      done)
    [ 1; 2 ]

(* The fault flight recorder end to end: a deliberately faulting board
   produces a TCKFLT02 artifact on disk that decodes totally (and
   refuses a flipped byte in any section, naming it), whose
   postmortem timeline contains the fault event, and whose freeze
   witness thaws back into a live board exhibiting the faulted
   process. With health on, the Degraded verdict adds one fleet-level
   SLO-breach artifact that (carrying no witness) must refuse to
   thaw. *)
let test_flight_recorder_artifact () =
  with_flight_dir @@ fun dir ->
  (* the injector's delayed wild read lands around 227k cycles — give
     the budget comfortable headroom past it *)
  let cfg =
    { Fleet.default with
      boards = 6; domains = 2; group_size = 1; cycles = 400_000;
      batch = 50_000; health = true; fault_board = Some 3;
      flight_dir = Some dir }
  in
  let r = Fleet.run_fleet cfg in
  let find_board b =
    List.find_opt
      (fun (_, (a : Flight.artifact)) -> a.Flight.fa_board = b)
      r.Fleet.fr_flights
  in
  let path, art =
    match find_board 3 with
    | Some pa -> pa
    | None -> Alcotest.fail "no flight artifact for the fault board"
  in
  (match art.Flight.fa_cause with
  | Flight.Fault { fl_proc; fl_reason } ->
      Alcotest.(check string) "faulting process" "crasher" fl_proc;
      Alcotest.(check bool) "fault reason described" true
        (String.length fl_reason > 0)
  | c -> Alcotest.failf "unexpected cause: %s" (Flight.cause_name c));
  Alcotest.(check bool) "artifact file written" true (Sys.file_exists path);
  let raw = read_file path in
  Alcotest.(check bool) "file leads with the magic" true
    (String.length raw >= 8 && String.sub raw 0 8 = Flight.magic);
  (* One flipped byte in each section's payload: [Error] naming it. *)
  let owner = owners ~magic:Flight.magic raw in
  Alcotest.(check (list string)) "artifact sections"
    [ "cause"; "events"; "metrics"; "witness" ]
    (List.map fst (sections ~magic:Flight.magic raw));
  List.iter
    (fun (name, payload) ->
      let first = ref (-1) in
      Array.iteri
        (fun i o -> if o = `Payload name && !first < 0 then first := i)
        owner;
      let b = Bytes.of_string raw in
      let i = !first + (String.length payload / 2) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      match Flight.decode (Bytes.to_string b) with
      | Ok _ -> Alcotest.failf "byte %d of section %s flipped: accepted" i name
      | Error e -> names_owner (Printf.sprintf "byte %d flipped" i) owner.(i) e)
    (sections ~magic:Flight.magic raw);
  (match Flight.decode raw with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok decoded ->
      Alcotest.(check string) "decode/encode round trip" raw
        (Flight.encode decoded);
      Alcotest.(check bool) "timeline contains the fault event" true
        (List.exists
           (fun e -> e.Flight.fe_kind = "fault")
           decoded.Flight.fa_events);
      (* the packed metrics snapshot decodes and records the fault *)
      (match decoded.Flight.fa_metrics with
      | None -> Alcotest.fail "artifact carries no metrics"
      | Some p -> (
          match Tock_obs.Metrics.unpack p with
          | Error e -> Alcotest.failf "artifact metrics unpack: %s" e
          | Ok snap -> (
              match List.assoc_opt "kernel.faults" snap with
              | Some (Tock_obs.Metrics.Counter v) ->
                  Alcotest.(check int) "fault counted" 1 v
              | _ -> Alcotest.fail "kernel.faults missing from artifact")));
      (* the witness thaws into a live board at the captured instant *)
      (match Fleet.thaw_artifact decoded with
      | Error e -> Alcotest.failf "thaw_artifact: %s" e
      | Ok board ->
          Alcotest.(check int) "thawed clock at capture" decoded.Flight.fa_clock
            (Tock_hw.Sim.now board.Tock_boards.Board.sim);
          Alcotest.(check bool) "thawed board shows the faulted process" true
            (List.exists
               (fun p ->
                 match Tock.Process.state p with
                 | Tock.Process.Faulted _ -> true
                 | _ -> false)
               (Tock.Kernel.processes board.Tock_boards.Board.kernel))));
  (* the degraded verdict added exactly one fleet-level artifact *)
  (match find_board (-1) with
  | None -> Alcotest.fail "SLO-breach artifact missing"
  | Some (fpath, fart) ->
      Alcotest.(check bool) "slo artifact written" true (Sys.file_exists fpath);
      (match fart.Flight.fa_cause with
      | Flight.Slo_breach _ -> ()
      | c -> Alcotest.failf "fleet artifact cause: %s" (Flight.cause_name c));
      (match Fleet.thaw_artifact fart with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "witness-less artifact must not thaw"));
  (* the fault never contaminates the other boards' results *)
  Array.iter
    (fun (bs : Fleet.board_stats) ->
      if bs.Fleet.bs_board <> 3 then
        Alcotest.(check bool)
          (Printf.sprintf "board %d still ran" bs.Fleet.bs_board)
          true (bs.Fleet.bs_syscalls > 0))
    r.Fleet.fr_stats

let test_seed_independent_of_grouping () =
  (* group_seed depends only on the fleet seed and first board index. *)
  let s = Fleet.group_seed 42L 0 in
  Alcotest.(check bool) "distinct per index" true
    (s <> Fleet.group_seed 42L 1);
  Alcotest.(check bool) "distinct per fleet seed" true
    (s <> Fleet.group_seed 43L 0);
  Alcotest.(check int64) "pure" s (Fleet.group_seed 42L 0)

let test_bad_config_rejected () =
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Fleet.run_fleet cfg);
           false
         with Invalid_argument _ -> true))
    [
      { Fleet.default with boards = 0 };
      { Fleet.default with domains = 0 };
      { Fleet.default with group_size = -1 };
      { Fleet.default with cycles = 0 };
      { Fleet.default with batch = 0 };
      { Fleet.default with park_min_quanta = 0 };
      (* a fault board the fleet never builds as a single board *)
      { Fleet.default with boards = 16; fault_board = Some 99 };
      { Fleet.default with boards = 16; fault_board = Some (-1) };
      { Fleet.default with boards = 16; group_size = 8; fault_board = Some 3 };
    ]

let test_leftover_fault_board () =
  (* Board 16 of 17 in groups of 8 is a group of one, built as a single
     board: it takes the fault injector and its fault is captured. *)
  with_flight_dir @@ fun dir ->
  let cfg =
    { Fleet.default with
      boards = 17; group_size = 8; cycles = 400_000; batch = 50_000;
      fault_board = Some 16; flight_dir = Some dir }
  in
  let r = Fleet.run_fleet cfg in
  match
    List.map (fun (_, (a : Flight.artifact)) -> (a.Flight.fa_board, a.Flight.fa_cause))
      r.Fleet.fr_flights
  with
  | [ (16, Flight.Fault { fl_proc; _ }) ] ->
      Alcotest.(check string) "faulting process" "crasher" fl_proc
  | l -> Alcotest.failf "expected one fault artifact for board 16, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "deterministic across domain counts (1/2/4)" `Quick
      test_deterministic_across_domains;
    Alcotest.test_case "deterministic radio groups" `Quick
      test_deterministic_radio_groups;
    Alcotest.test_case "deterministic across batch quanta" `Quick
      test_batch_invariance;
    Alcotest.test_case "fast-forward reaches identical state" `Quick
      test_fast_forward_identical_state;
    Alcotest.test_case "snapshot/restore determinism" `Quick
      test_snapshot_restore_determinism;
    Alcotest.test_case "thaw determinism (O(state) resume)" `Quick
      test_thaw_determinism;
    Alcotest.test_case "resumable only at the checkpoint sleep" `Quick
      test_resumable_freeze_points;
    Alcotest.test_case "flash counters survive freeze/thaw" `Quick
      test_flash_counters_survive_thaw;
    Alcotest.test_case "witness format pinned by golden MD5s" `Quick
      test_golden_witnesses;
    Alcotest.test_case "corrupt witnesses rejected as Error" `Quick
      test_witness_rejects_corruption;
    Alcotest.test_case "decoders never raise on boundary words" `Quick
      test_decoders_total_on_boundary_words;
    qcheck_decoders_total;
    prop_freeze_thaw_contract;
    Alcotest.test_case "park/resume byte-identical (1/2/4 domains, verified)"
      `Quick test_park_resume_identical;
    Alcotest.test_case "aggressive parking parks only resumable boards"
      `Quick test_park_only_resumable;
    Alcotest.test_case "100k-board construction + park smoke" `Slow
      test_100k_construction_park_smoke;
    Alcotest.test_case "fleet-smoke (2 domains, one list)" `Quick
      test_fleet_smoke;
    Alcotest.test_case "health rollups byte-identical (1/2/4 domains)" `Quick
      test_health_identical_across_domains;
    Alcotest.test_case "flight recorder: fault artifact decodes and thaws"
      `Quick test_flight_recorder_artifact;
    Alcotest.test_case "radio flight ring byte-identical (1/2 domains)" `Quick
      test_radio_flight_ring_identical;
    Alcotest.test_case "depth-first: one live group per domain" `Quick
      test_depth_first_dispatch;
    Alcotest.test_case "group seeds are pure" `Quick
      test_seed_independent_of_grouping;
    Alcotest.test_case "bad configs rejected" `Quick test_bad_config_rejected;
    Alcotest.test_case "leftover single board takes the fault" `Quick
      test_leftover_fault_board;
  ]
