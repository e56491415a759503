(* The four workloads, how each is driven end to end through the public
   entry points, and the serial replica the traced run uses to charge
   host time to layers.

   Everything the program sees is generated here from the seed: a
   [Fleet.config], or signed TBF images plus the app registry. *)

module Fleet = Tock_fleet.Fleet
module Board = Tock_boards.Board
module Signpost = Tock_boards.Signpost_board
module Rot = Tock_boards.Rot_board
module Metrics = Tock_obs.Metrics
module Apps = Tock_userland.Apps

type profile = Full | Smoke

type shape =
  | Fleet of { boards : int; cycles : int; park : bool; group_size : int }
  | Rot of { boards : int; challenges : int }

type t = { name : string; full : shape; smoke : shape }

(* Full sizes make one rep take about [rep_target_s] on a 2-core
   x86-64 host at 1 domain (2 domains spread ~12% run to run). *)
let rep_target_s = 4.

let all =
  [
    (* Short-lived boards: construction and retirement are a large share
       of host time, and nothing parks, so this is the no-change control
       for park work. *)
    {
      name = "fleet-churn";
      full = Fleet { boards = 46_000; cycles = 1_000_000; park = false; group_size = 1 };
      smoke = Fleet { boards = 96; cycles = 1_000_000; park = false; group_size = 1 };
    };
    (* Long sleeps with park on: freeze, rebuild and thaw are a large
       share of host time, and retained memory per board is measured. *)
    {
      name = "fleet-park";
      full = Fleet { boards = 24_000; cycles = 4_000_000; park = true; group_size = 1 };
      smoke = Fleet { boards = 48; cycles = 4_000_000; park = true; group_size = 1 };
    };
    (* Signpost radio groups of 8 on one clock that never park: the
       kernel loop, the radio capsules and the event queue dominate. *)
    {
      name = "radio-mesh";
      full = Fleet { boards = 25_600; cycles = 4_000_000; park = false; group_size = 8 };
      smoke = Fleet { boards = 48; cycles = 4_000_000; park = false; group_size = 8 };
    };
    (* Signed boot, then a closed loop of HMAC challenges over IPC on
       long-lived root-of-trust boards: the syscall path dominates and
       no fleet code runs. *)
    {
      name = "rot-attest";
      full = Rot { boards = 32; challenges = 7168 };
      smoke = Rot { boards = 2; challenges = 48 };
    };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (one of: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) all)))

let shape w = function Full -> w.full | Smoke -> w.smoke

(* The fixed warm-up before the first timed rep: a slice of the same
   fleet (same per-board shape), or one whole rot board. *)
let warm_shape = function
  | Fleet f ->
      let g = f.group_size in
      Fleet { f with boards = max g (min 2000 (f.boards / 8) / g * g) }
  | Rot r -> Rot { r with boards = 1 }

let units = function
  | Fleet f -> f.boards
  | Rot r -> r.boards * r.challenges

let fleet_seed seed = Fleet.group_seed 0x5EED_BE7CL seed

let fleet_config ~seed = function
  | Fleet { boards; cycles; park; group_size } ->
      if boards mod group_size <> 0 then
        invalid_arg "workload: boards must be a multiple of group_size";
      {
        Fleet.default with
        boards;
        cycles;
        park;
        park_min_quanta = 3;
        group_size;
        health = true;
        seed = fleet_seed seed;
      }
  | Rot _ -> invalid_arg "fleet_config: not a fleet workload"

(* ---- per-board results and the fingerprint ---- *)

type entry = {
  cycles : int;
  syscalls : int;
  digest : string;  (* MD5 hex of the uart0 capture *)
  packed : Metrics.packed;
}

let entry_of_stats (bs : Fleet.board_stats) =
  {
    cycles = bs.Fleet.bs_cycles;
    syscalls = bs.Fleet.bs_syscalls;
    digest = bs.Fleet.bs_output_digest;
    packed = bs.Fleet.bs_metrics;
  }

let same_entry a b =
  a.cycles = b.cycles && a.syscalls = b.syscalls && a.digest = b.digest
  && String.equal a.packed.Metrics.p_blob b.packed.Metrics.p_blob

let faulted e =
  let n = ref 0 in
  Metrics.iter_packed e.packed
    ~counter:(fun name v -> if name = "kernel.faults" then n := v)
    ~gauge:(fun _ _ -> ())
    ~hist:(fun _ ~count:_ ~sum:_ -> ());
  !n > 0

(* MD5 over every board's (cycles, syscalls, output digest, packed blob)
   in board order, then the merged metrics snapshot. *)
let fingerprint entries snapshot =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b
        (Digest.string
           (Printf.sprintf "%d|%d|%s|%s" e.cycles e.syscalls e.digest
              e.packed.Metrics.p_blob)))
    entries;
  Buffer.add_string b (Metrics.render_json snapshot);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- the fleet's board recipe, rebuilt from public calls ----

   [Fleet] keeps its construction private, so the replica restates it:
   3 app mixes x 7 period jitters by absolute board index, a sam4l-like
   chip per independent board, and Signpost groups with a gateway sink
   and beacons. A drift from [Fleet] shows up at once as a fingerprint
   mismatch between the replica and [Fleet.run_fleet]. *)

let mixes =
  Array.init 3 (fun mix ->
      Array.init 7 (fun jitter ->
          match mix with
          | 0 ->
              [
                ("counter", Apps.counter ~n:8 ~period_ticks:(200 + (17 * jitter)));
                ("hello", Apps.hello);
              ]
          | 1 ->
              [
                ( "blink",
                  Apps.blink ~led:0 ~period_ticks:(150 + (13 * jitter)) ~blinks:10 );
                ( "sensors",
                  Apps.sensor_logger ~samples:4 ~period_ticks:(900 + (31 * jitter)) );
              ]
          | _ -> [ ("kv", Apps.kv_user ~rounds:4); ("hello", Apps.hello) ]))

let add_apps board apps =
  List.iter
    (fun (name, app) ->
      match Board.add_app board ~name app with
      | Ok _ -> ()
      | Error e -> failwith ("replica: app " ^ name ^ ": " ^ Tock.Error.to_string e))
    apps

let build_single (cfg : Fleet.config) idx =
  let sim =
    Tock_hw.Sim.create ~seed:(Fleet.group_seed cfg.Fleet.seed idx) ~trace_capacity:0 ()
  in
  let board = Board.build (Tock_hw.Chip.sam4l_like sim) in
  add_apps board mixes.(idx mod 3).(idx mod 7);
  board

let build_radio (cfg : Fleet.config) g =
  let lo = g * cfg.Fleet.group_size in
  let n = min cfg.Fleet.boards (lo + cfg.Fleet.group_size) - lo in
  let net =
    Signpost.create ~seed:(Fleet.group_seed cfg.Fleet.seed lo) ~loss_prob:0.02 ~nodes:n ()
  in
  (match net.Signpost.nodes with
  | gateway :: beacons ->
      add_apps gateway.Signpost.node_board
        [ ("sink", Apps.radio_sink ~expect:(3 * (n - 1))) ];
      List.iteri
        (fun i node ->
          add_apps node.Signpost.node_board
            [
              ( Printf.sprintf "beacon%d" i,
                Apps.radio_beacon ~frames:3 ~period_ticks:(700 + (61 * i)) );
            ])
        beacons
  | [] -> invalid_arg "replica: empty radio group");
  net

type group = Single of Board.t | Radio of Signpost.t

let group_sim = function Single b -> b.Board.sim | Radio n -> n.Signpost.sim

let group_now g = Tock_hw.Sim.now (group_sim g)

let group_run g ~deadline =
  match g with
  | Single b -> Tock.Kernel.run_to_deadline b.Board.kernel ~cap:b.Board.main_cap ~deadline
  | Radio n -> Signpost.run_to_deadline n ~deadline

let group_sleep g time =
  match g with
  | Single b -> Tock.Kernel.sleep_to b.Board.kernel ~cap:b.Board.main_cap time
  | Radio n -> Signpost.sleep_all_to n time

let group_boards = function
  | Single b -> [ b ]
  | Radio n -> List.map (fun node -> node.Signpost.node_board) n.Signpost.nodes

let retire (b : Board.t) =
  let s = Tock.Kernel.stats b.Board.kernel in
  {
    cycles = Tock_hw.Sim.now b.Board.sim;
    syscalls = s.Tock.Kernel.syscalls;
    digest = Digest.to_hex (Digest.string (Board.output b));
    packed = Metrics.packed_of (Tock.Kernel.metrics b.Board.kernel);
  }

type replica = {
  r_entries : entry list;  (* board order *)
  r_snapshot : Metrics.snapshot;
  r_parks : int;
  r_witness_bytes : int;
}

(* One group at a time, each stepped in [batch] quanta to its budget
   exactly as the fleet calendar steps it: a sleep that outlasts
   [park_min_quanta] quanta freezes the board, rebuilds it and thaws the
   witness (the calendar does the same, only later); results, park
   count and witness bytes match [Fleet.run_fleet] at 1 domain. What the
   replica leaves out is the calendar itself and the live-window
   interleave, which the suite reports as the scheduler residual. *)
let replica_fleet sp (cfg : Fleet.config) ~groups =
  let buf = Buffer.create (64 * 1024) in
  let acc = Metrics.Accum.create () in
  let roll = Tock_obs.Rollup.create ~cohorts:3 in
  let entries = ref [] and parks = ref 0 and witness_bytes = ref 0 in
  let materialize g =
    if cfg.Fleet.group_size = 1 then Single (build_single cfg g)
    else Radio (build_radio cfg g)
  in
  for g = 0 to groups - 1 do
    let lo = g * cfg.Fleet.group_size in
    sp.Span.keep <- lo < Span.full_units;
    let rec step grp wake =
      if wake >= 0 then Span.time sp Span.Sleep (fun () -> group_sleep grp wake);
      let deadline = min (group_now grp + cfg.Fleet.batch) cfg.Fleet.cycles in
      match Span.time sp Span.Run (fun () -> group_run grp ~deadline) with
      | `Budget -> if group_now grp >= cfg.Fleet.cycles then grp else step grp (-1)
      | `Stalled -> grp
      | `Asleep w when w >= cfg.Fleet.cycles ->
          Span.time sp Span.Sleep (fun () -> group_sleep grp cfg.Fleet.cycles);
          grp
      | `Asleep w -> (
          match grp with
          | Single b
            when cfg.Fleet.park
                 && w - group_now grp >= cfg.Fleet.park_min_quanta * cfg.Fleet.batch ->
              let witness =
                Span.time sp Span.Freeze (fun () -> Tock.Kernel.freeze ~buf b.Board.kernel)
              in
              incr parks;
              witness_bytes := !witness_bytes + String.length witness;
              let b' = Span.time sp Span.Rebuild (fun () -> build_single cfg g) in
              (match
                 Span.time sp Span.Thaw (fun () ->
                     Tock.Kernel.thaw b'.Board.kernel ~cap:b'.Board.main_cap witness)
               with
              | Ok () -> ()
              | Error e -> failwith (Printf.sprintf "replica: thaw of board %d: %s" g e));
              step (Single b') w
          | _ -> step grp w)
    in
    let grp = step (Span.time sp Span.Build (fun () -> materialize g)) (-1) in
    List.iteri
      (fun i b ->
        let e = Span.time sp Span.Retire (fun () -> retire b) in
        Span.time sp Span.Merge (fun () -> Metrics.Accum.add_packed acc e.packed);
        Span.time sp Span.Rollup (fun () ->
            Tock_obs.Rollup.add_packed roll ~cohort:((lo + i) mod 3) e.packed);
        entries := e :: !entries)
      (group_boards grp)
  done;
  let entries = List.rev !entries in
  (* The fleet's end-of-run health pass: SLOs plus the outlier scan. *)
  Span.time sp Span.Rollup (fun () ->
      ignore
        (Tock_obs.Rollup.evaluate roll ~slos:Fleet.default_slos ~iter_boards:(fun f ->
             List.iteri (fun i e -> f ~cohort:(i mod 3) ~board:i e.packed) entries)));
  {
    r_entries = entries;
    r_snapshot = Span.time sp Span.Merge (fun () -> Metrics.Accum.to_snapshot acc);
    r_parks = !parks;
    r_witness_bytes = !witness_bytes;
  }

(* ---- rot-attest ---- *)

type rot_board = { rot : Rot.t; images : Tock_tbf.Tbf.t list }

(* Key generation and signing: set-up, not part of a timed rep. *)
let rot_prepare sp ~seed ~boards =
  List.init boards (fun b ->
      Span.time sp Span.Build (fun () ->
          let rot = Rot.create ~seed:(Fleet.group_seed (fleet_seed seed) b) () in
          let token = Rot.sign_app rot ~name:"token" ~binary:(Apps.make_token_binary ()) () in
          let requester = Rot.sign_app rot ~name:"requester" () in
          { rot; images = [ token; requester ] }))

(* The token answers with the low 16 bits of HMAC(key, challenge LE32). *)
let expected_response i =
  let msg = Bytes.create 4 in
  Bytes.set_int32_le msg 0 (Int32.of_int (0x1000 + i));
  let tag = Tock_crypto.Hmac.mac_bytes ~key:Apps.token_key msg in
  Char.code (Bytes.get tag 0) lor (Char.code (Bytes.get tag 1) lsl 8)

(* Simulated-cycle ceilings for one boot and one round trip; a board
   that needs more has hung. *)
let boot_budget = 200_000_000
let challenge_budget = 50_000_000

(* Each board boots its signed token and requester, then the requester
   sends one challenge at a time and waits for the answer (a closed
   loop, one client per board). A challenge completes when its console
   line does; its latency is the host time since the previous one.
   Returns the latencies (ns) of the challenges that completed. *)
let rot_run sp boards ~challenges =
  let registry =
    [
      ("token", Apps.hmac_token ~challenges);
      ("requester", Apps.hmac_token_requester ~service:"token" ~challenges);
    ]
  in
  let latencies = Array.make (List.length boards * challenges) 0 in
  let done_ = ref 0 in
  List.iteri
    (fun bi { rot; images } ->
      let board = rot.Rot.board in
      let summary = ref None in
      sp.Span.keep <- bi * challenges < Span.full_units;
      let booted =
        Span.time sp Span.Boot (fun () ->
            Rot.load_signed rot ~apps:images ~registry ~on_done:(fun s -> summary := Some s);
            Board.run_until board ~max_cycles:boot_budget (fun () -> !summary <> None))
      in
      let loaded =
        match !summary with
        | Some s ->
            List.for_all
              (function Tock.Process_loader.Loaded _ -> true | _ -> false)
              s.Tock.Process_loader.outcomes
        | None -> false
      in
      if booted && loaded then begin
        let log = board.Board.uart_log in
        let cursor = ref 0 and line_start = ref 0 and lines = ref 0 in
        let scan () =
          while !cursor < Buffer.length log do
            if Buffer.nth log !cursor = '\n' then begin
              if Buffer.nth log !line_start = 'c' then incr lines;
              line_start := !cursor + 1
            end;
            incr cursor
          done
        in
        let prev = ref (Span.now ()) and k = ref 1 in
        while !k <= challenges do
          let unit = (bi * challenges) + !k - 1 in
          sp.Span.keep <- unit < Span.full_units;
          let target = !k in
          if
            Span.time sp Span.Run (fun () ->
                Board.run_until board ~max_cycles:challenge_budget (fun () ->
                    scan ();
                    !lines >= target))
          then begin
            let t = Span.now () in
            latencies.(!done_) <- t - !prev;
            incr done_;
            prev := t;
            incr k
          end
          else k := challenges + 1
        done;
        Span.time sp Span.Run (fun () ->
            Board.run_to_completion board ~max_cycles:boot_budget ())
      end)
    boards;
  Array.sub latencies 0 !done_

(* After the run: the number of answers that match an independent HMAC,
   and the MD5 fingerprint of the console captures. *)
let rot_verify boards ~challenges =
  let consoles = List.map (fun b -> Board.output b.rot.Rot.board) boards in
  let expected = Array.init (challenges + 1) expected_response in
  let answered =
    List.fold_left
      (fun acc console ->
        List.fold_left
          (fun acc line ->
            match Scanf.sscanf_opt line "challenge %d -> %x" (fun i r -> (i, r)) with
            | Some (i, r) when i >= 1 && i <= challenges && expected.(i) = r -> acc + 1
            | _ -> acc)
          acc
          (String.split_on_char '\n' console))
      0 consoles
  in
  ( answered,
    Digest.to_hex
      (Digest.string (String.concat "" (List.map Digest.string consoles))) )

let rot_snapshot boards =
  Metrics.merge
    (List.map (fun b -> Tock.Kernel.metrics_snapshot b.rot.Rot.board.Board.kernel) boards)

(* ---- exact counts from a run's own registries ---- *)

let count_names =
  [
    "kernel.syscalls";
    "kernel.loop_iterations";
    "kernel.context_switches";
    "alarm_mux.fired";
    (* Beacons send through the raw radio driver, which net.tx_frames
       (the reliable link layer) never sees. *)
    "driver.radio.commands";
    "hw.mpu.scans";
    "core.subslice.copies";
    "fleet.sched.dispatches";
    "fleet.sched.board_parks";
    "fleet.sched.fast_forwards";
    "fleet.sched.witness_bytes";
  ]

let counts ~snapshot ~sched ~subslice_copies =
  let value snap name =
    match List.assoc_opt name snap with
    | Some (Metrics.Counter n) | Some (Metrics.Gauge n) -> n
    | Some (Metrics.Histogram h) -> h.Metrics.hs_count
    | None -> 0
  in
  let mpu_scans =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Metrics.Gauge n
          when String.starts_with ~prefix:"process." name
               && String.ends_with ~suffix:".mpu_scans" name ->
            acc + n
        | _ -> acc)
      0 snapshot
  in
  List.map
    (fun name ->
      ( name,
        match name with
        | "hw.mpu.scans" -> mpu_scans
        | "core.subslice.copies" -> subslice_copies
        | n when String.starts_with ~prefix:"fleet.sched." n -> value sched n
        | n -> value snapshot n ))
    count_names
