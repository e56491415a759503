(* Repository benchmark: four workloads driven end to end through the
   public fleet and root-of-trust entry points, each timed rep in a
   child process of its own, plus a traced serial replica that charges
   host time to layers. README.md in this directory explains the
   workloads, the metrics and how to read them.

     suite.exe run     [--workload W] [--seed N] [--seconds S] [--out R.json]
     suite.exe trace   [--workload W] [--seed N] [--seconds S] [--out T.json]
                       [--trace-out T.perfetto.json]
     suite.exe compare A.json B.json [--spec BENCHMARK.json]
     suite.exe smoke   --spec BENCHMARK.json
     suite.exe bench   --workload W --seed N --seconds S --trace 0|1

   [bench] measures one workload and ends its output with one JSON line:
   the end-to-end metrics with [--trace 0], the per-layer ones with
   [--trace 1]. *)

module W = Workload
module Fleet = Tock_fleet.Fleet

let default_seed = 1

type mode = E2e | Replica | Traced

let modes = [ ("e2e", E2e); ("replica", Replica); ("traced", Traced) ]

let profiles = [ ("full", W.Full); ("smoke", W.Smoke) ]

let key_of table v = fst (List.find (fun (_, x) -> x = v) table)

let num i = Json.Num (float_of_int i)

(* ===== child: set up, run one rep, report one JSON line ===== *)

let word_bytes = Sys.word_size / 8

(* live_words is exact only right after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* What [Fleet.run_fleet] sets for itself at 1 domain; the replica runs
   under the same minor heap and space overhead. *)
let fleet_gc_tune () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22; space_overhead = 240 }

(* Groups an end-to-end child re-runs through the replica after its
   rep, so per-board results are checked at every seed. *)
let spot_groups = 16

type rep = {
  start_ns : int;
  stop_ns : int;
  boards : int;
  cycles : int;
  attempted : int;
  failed : int;
  fingerprint : string;
  bytes_per_board : float;
  extra : (string * Json.t) list;
}

(* The timed window: [f] between two clock readings. Traced, it also
   reports the recorder's layers, full spans and the GC deltas over
   exactly that window. *)
let timed (sp : Span.t) f =
  let pause =
    if sp.Span.on then begin
      let g = Span.Gc_pause.create () in
      sp.Span.poll <- (fun () -> ignore (Span.Gc_pause.read g));
      fun () -> Span.Gc_pause.read g
    end
    else fun () -> 0
  in
  let pause0 = pause () in
  let q0 = Gc.quick_stat () in
  let t0 = Span.now () in
  sp.Span.wall_start <- t0;
  let r = f () in
  let t1 = Span.now () in
  let q1 = Gc.quick_stat () in
  let pause1 = pause () in
  let fields =
    if not sp.Span.on then []
    else
      [
        ( "layers",
          Json.Obj
            (List.map
               (fun l ->
                 let i = Span.index l in
                 ( Span.name l,
                   Json.Obj
                     [
                       ("self_ns", num sp.Span.self_ns.(i));
                       ("calls", num sp.Span.calls.(i));
                       ("minor_words", Json.Num sp.Span.minor_words.(i));
                       ("kept_ns", num sp.Span.kept_ns.(i));
                     ] ))
               Span.layers) );
        ("attributed_ns", num (Span.attributed_ns sp));
        ("boot_ns", Json.Arr (List.map num sp.Span.boot_ns));
        ( "spans",
          Json.Arr
            (List.rev_map
               (fun (i, a, b) -> Json.Arr [ num i; num (a - t0); num (b - t0) ])
               sp.Span.full) );
        ( "gc",
          Json.Obj
            [
              ("minor_collections", num (q1.Gc.minor_collections - q0.Gc.minor_collections));
              ("major_collections", num (q1.Gc.major_collections - q0.Gc.major_collections));
              ("minor_words", Json.Num (q1.Gc.minor_words -. q0.Gc.minor_words));
              ("pause_ns", num (pause1 - pause0));
            ] );
      ]
  in
  (r, t0, t1, fields)

let counts_json counts = ("counts", Json.Obj (List.map (fun (k, v) -> (k, num v)) counts))

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let child_fleet ~mode ~seed shape base =
  let cfg = W.fleet_config ~seed shape in
  let warm = W.fleet_config ~seed (W.warm_shape shape) in
  let groups = Fleet.group_count cfg in
  let per_board live = float_of_int ((live - base) * word_bytes) /. float_of_int cfg.Fleet.boards in
  match mode with
  | E2e ->
      ignore (Fleet.run_fleet warm);
      let copies0 = Tock.Subslice.copy_count () in
      let r, t0, t1, _ = timed Span.off (fun () -> Fleet.run_fleet cfg) in
      let copies = Tock.Subslice.copy_count () - copies0 in
      let bytes_per_board = per_board (live_words ()) in
      let entries = Array.map W.entry_of_stats r.Fleet.fr_stats in
      let spot =
        Array.of_list (W.replica_fleet Span.off cfg ~groups:(min groups spot_groups)).W.r_entries
      in
      let failed = ref 0 in
      Array.iteri
        (fun i e ->
          if W.faulted e || (i < Array.length spot && not (W.same_entry e spot.(i)))
          then incr failed)
        entries;
      {
        start_ns = t0;
        stop_ns = t1;
        boards = cfg.Fleet.boards;
        cycles = Fleet.total_cycles r.Fleet.fr_stats;
        attempted = cfg.Fleet.boards;
        failed = !failed;
        fingerprint = W.fingerprint (Array.to_list entries) r.Fleet.fr_metrics;
        bytes_per_board;
        extra =
          [
            counts_json
              (W.counts ~snapshot:r.Fleet.fr_metrics ~sched:r.Fleet.fr_sched
                 ~subslice_copies:copies);
          ];
      }
  | Replica | Traced ->
      fleet_gc_tune ();
      ignore (W.replica_fleet Span.off warm ~groups:(Fleet.group_count warm));
      let sp = if mode = Traced then Span.create () else Span.off in
      let r, t0, t1, fields = timed sp (fun () -> W.replica_fleet sp cfg ~groups) in
      let bytes_per_board = per_board (live_words ()) in
      {
        start_ns = t0;
        stop_ns = t1;
        boards = cfg.Fleet.boards;
        cycles = sum (fun e -> e.W.cycles) r.W.r_entries;
        attempted = cfg.Fleet.boards;
        failed = List.length (List.filter W.faulted r.W.r_entries);
        fingerprint = W.fingerprint r.W.r_entries r.W.r_snapshot;
        bytes_per_board;
        extra = ("witness_bytes", num r.W.r_witness_bytes) :: fields;
      }

let child_rot ~mode ~seed ~boards ~challenges base =
  let sp = if mode = Traced then Span.create () else Span.off in
  let units = W.rot_prepare sp ~seed ~boards in
  ignore (W.rot_run Span.off (W.rot_prepare Span.off ~seed ~boards:1) ~challenges);
  let copies0 = Tock.Subslice.copy_count () in
  let lat, t0, t1, fields = timed sp (fun () -> W.rot_run sp units ~challenges) in
  let copies = Tock.Subslice.copy_count () - copies0 in
  let bytes_per_board =
    float_of_int ((live_words () - base) * word_bytes) /. float_of_int boards
  in
  let answered, fingerprint = W.rot_verify units ~challenges in
  let sorted = Array.map float_of_int lat in
  Array.sort Float.compare sorted;
  {
    start_ns = t0;
    stop_ns = t1;
    boards;
    cycles =
      sum (fun u -> Tock_hw.Sim.now u.W.rot.Tock_boards.Rot_board.board.Tock_boards.Board.sim) units;
    attempted = boards * challenges;
    failed = (boards * challenges) - answered;
    fingerprint;
    bytes_per_board;
    extra =
      counts_json
        (W.counts ~snapshot:(W.rot_snapshot units) ~sched:[] ~subslice_copies:copies)
      :: ( "latency",
           Json.Obj
             [
               ("samples", num (Array.length sorted));
               ("p50_ns", Json.Num (Stats.percentile sorted 0.50));
               ("p99_ns", Json.Num (Stats.percentile sorted 0.99));
             ] )
      :: fields;
  }

let child ~workload ~seed ~profile ~mode =
  let base = live_words () in
  let w = W.find workload in
  let rep =
    match W.shape w profile with
    | W.Fleet _ as shape -> child_fleet ~mode ~seed shape base
    | W.Rot { boards; challenges } -> child_rot ~mode ~seed ~boards ~challenges base
  in
  let peak = (Gc.quick_stat ()).Gc.top_heap_words * word_bytes in
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          ([
             ("rep_start_ns", num rep.start_ns);
             ("wall_s", Json.Num (float_of_int (rep.stop_ns - rep.start_ns) /. 1e9));
             ("boards", num rep.boards);
             ("cycles", num rep.cycles);
             ("attempted", num rep.attempted);
             ("failed", num rep.failed);
             ("fingerprint", Json.Str rep.fingerprint);
             ("bytes_per_board", Json.Num rep.bytes_per_board);
             ("peak_heap_mb", Json.Num (float_of_int peak /. 1e6));
           ]
          @ rep.extra)))

(* ===== parent: spawn children, aggregate, check ===== *)

type outcome = { json : Json.t; setup_s : float }

let get o k = Json.member k o.json

let getf o k = Json.to_num (get o k)

(* The child being waited for: an interrupted parent stops and reaps it
   before exiting, so no rep outlives the command. *)
let running = ref None

let () =
  let stop _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !running;
    exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

(* One child process per rep, so heap size, GC state and peak-heap
   readings never carry over between reps or workloads. [setup_s] runs
   from just before the spawn to the child's first timed instant. *)
let spawn ~w ~seed ~profile mode =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "child"; "--workload"; w.W.name; "--seed"; string_of_int seed;
      "--profile"; key_of profiles profile; "--mode"; key_of modes mode;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t_spawn = Span.now () in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  running := Some pid;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let rec wait () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  running := None;
  let last =
    match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> ""
  in
  let what = Printf.sprintf "%s %s child" w.W.name (key_of modes mode) in
  match status with
  | Unix.WEXITED 0 -> (
      match Json.of_string last with
      | json ->
          let start = Json.to_int (Json.member "rep_start_ns" json) in
          Ok { json; setup_s = float_of_int (start - t_spawn) /. 1e9 }
      | exception Json.Parse_error e -> Error (what ^ ": unreadable result: " ^ e))
  | Unix.WEXITED n -> Error (Printf.sprintf "%s exited with %d" what n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "%s killed by signal %d" what n)

(* End-to-end metrics, in BENCHMARK.json order. *)
let e2e_metrics =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("sim_cycles_per_s", "cycles/s");
    ("boards_per_s", "boards/s");
    ("bytes_per_board", "B");
    ("peak_heap_mb", "MB");
  ]

(* rot-attest only, so reported by [run] but not part of BENCHMARK.json,
   whose metrics every workload must report. *)
let rot_metrics =
  [ ("challenges_per_s", "1/s"); ("challenge_p50_us", "us"); ("challenge_p99_us", "us") ]

let rep_values o =
  let wall = getf o "wall_s" in
  [
    ("setup_s", o.setup_s);
    ("wall_s", wall);
    ("sim_cycles_per_s", getf o "cycles" /. wall);
    ("boards_per_s", getf o "boards" /. wall);
    ("bytes_per_board", getf o "bytes_per_board");
    ("peak_heap_mb", getf o "peak_heap_mb");
  ]
  @
  match get o "latency" with
  | Json.Null -> []
  | l ->
      let g k = Json.to_num (Json.member k l) in
      [
        ("challenges_per_s", g "samples" /. wall);
        ("challenge_p50_us", g "p50_ns" /. 1e3);
        ("challenge_p99_us", g "p99_ns" /. 1e3);
      ]

let counts_of o =
  List.map (fun (k, v) -> (k, Json.to_int v)) (Json.to_obj (get o "counts"))

type check = {
  correct : bool;
  attempted : int;
  failed : int;
  fingerprint : string;
  counts : (string * int) list;
  problems : string list;
}

(* Every rep and replica of one seed must agree on the fingerprint and
   exact counts, and at the default seed match the committed golden
   value. A mismatch fails every operation. *)
let check_outcomes ~w ~profile ~seed ~attempted ~e2e ~others results =
  let errors = List.filter_map (function Error e -> Some e | Ok _ -> None) results in
  let fp o = Json.to_str (get o "fingerprint") in
  let fingerprint = match e2e with o :: _ -> fp o | [] -> "" in
  let counts = match e2e with o :: _ -> counts_of o | [] -> [] in
  let problems =
    errors
    @ List.filter_map
        (fun o ->
          if fp o <> fingerprint then
            Some (Printf.sprintf "fingerprint %s differs from %s" (fp o) fingerprint)
          else None)
        (e2e @ others)
    @ List.filter_map
        (fun o ->
          if counts_of o <> counts then Some "exact counts differ between reps" else None)
        e2e
    @
    if seed <> default_seed then []
    else
      match List.assoc_opt (w.W.name, key_of profiles profile) Golden.fingerprints with
      | Some g when g = fingerprint -> []
      | Some g -> [ Printf.sprintf "fingerprint %s differs from golden %s" fingerprint g ]
      | None -> [ "no golden fingerprint" ]
  in
  let failed =
    if problems <> [] then attempted
    else sum (fun o -> Json.to_int (get o "failed")) (e2e @ others)
  in
  { correct = problems = [] && failed = 0; attempted; failed; fingerprint; counts; problems }

let oks = List.filter_map Result.to_option

type run_result = {
  r_check : check;
  r_metrics : (string * (string * Stats.summary)) list;  (* name, (unit, summary) *)
}

let run_workload ~profile ~seed ~reps w =
  let results = List.init reps (fun _ -> spawn ~w ~seed ~profile E2e) in
  let e2e = oks results in
  let per_rep = List.map rep_values e2e in
  let r_metrics =
    List.filter_map
      (fun (name, unit) ->
        match List.filter_map (List.assoc_opt name) per_rep with
        | [] -> None
        | vs -> Some (name, (unit, Stats.summarize vs)))
      (e2e_metrics @ rot_metrics)
  in
  let attempted = W.units (W.shape w profile) * reps in
  {
    r_check = check_outcomes ~w ~profile ~seed ~attempted ~e2e ~others:[] results;
    r_metrics;
  }

(* Per-layer metrics as (name, unit, listed in BENCHMARK.json). A layer
   that never runs on some workload (freeze on fleet-churn, boot on the
   fleets) would report a time of exactly 0 on every run there, so
   BENCHMARK.json carries each layer's share of the traced wall, and
   absolute times only for layers every workload runs; trace files get
   all of them. *)
let layer_metrics =
  List.concat_map
    (fun l ->
      let n = Span.name l and everywhere = l = Span.Build || l = Span.Run in
      [
        (n ^ ".self_s", "s", everywhere);
        (n ^ ".self_frac", "ratio", true);
        (n ^ ".calls", "count", true);
        (n ^ ".us_per_call", "us", everywhere);
        (n ^ ".minor_words", "words", true);
      ])
    Span.layers
  @ [
      ("kernel.freeze.bytes_per_call", "B", true);
      ("rot.boot.p50_ms", "ms", false);
      ("trace.wall_s", "s", true);
      ("fleet.sched.residual_s", "s", true);
      ("fleet.sched.residual_frac", "ratio", true);
      ("trace.overhead_frac", "ratio", true);
      ("unattributed_frac", "ratio", true);
      ("kernel.run.ns_per_syscall", "ns", true);
      ("gc.minor_collections", "count", true);
      ("gc.major_collections", "count", true);
      ("gc.minor_words", "words", true);
      ("gc.pause_s", "s", true);
    ]
  @ List.map
      (fun n -> (n, (if n = "fleet.sched.witness_bytes" then "B" else "count"), true))
      W.count_names

let spec_layer_metrics =
  List.filter_map (fun (n, unit, listed) -> if listed then Some (n, unit) else None) layer_metrics

type trace_result = {
  t_check : check;
  t_metrics : (string * (string * float)) list;  (* name, (unit, value) *)
  t_traced : Json.t option;  (* the traced child's report, for Perfetto *)
}

let trace_workload ~profile ~seed ~rounds w =
  let pairs =
    List.init rounds (fun _ ->
        let e = spawn ~w ~seed ~profile E2e in
        (e, spawn ~w ~seed ~profile Replica))
  in
  let traced = spawn ~w ~seed ~profile Traced in
  let e2e = oks (List.map fst pairs) and replicas = oks (List.map snd pairs) in
  let t = oks [ traced ] in
  let attempted = W.units (W.shape w profile) * ((2 * rounds) + 1) in
  let t_check =
    check_outcomes ~w ~profile ~seed ~attempted ~e2e ~others:(replicas @ t)
      (traced :: List.concat_map (fun (a, b) -> [ a; b ]) pairs)
  in
  let t_metrics =
    match t with
    | [] -> []
    | tr :: _ ->
        let wall l = Stats.median (List.map (fun o -> getf o "wall_s") l) in
        let e2e_wall = wall e2e and replica_wall = wall replicas in
        let traced_wall = getf tr "wall_s" in
        let layer l k = Json.to_num (Json.member k (Json.member (Span.name l) (get tr "layers"))) in
        let per_layer =
          List.concat_map
            (fun l ->
              let n = Span.name l and self_ns = layer l "self_ns" and calls = layer l "calls" in
              [
                (n ^ ".self_s", self_ns /. 1e9);
                (n ^ ".self_frac", self_ns /. 1e9 /. traced_wall);
                (n ^ ".calls", calls);
                (n ^ ".us_per_call", if calls = 0. then 0. else self_ns /. calls /. 1e3);
                (n ^ ".minor_words", layer l "minor_words");
              ])
            Span.layers
        in
        let counts = t_check.counts in
        let count n = float_of_int (Option.value ~default:0 (List.assoc_opt n counts)) in
        let freezes = layer Span.Freeze "calls" in
        let boots = List.map Json.to_num (Json.to_list (get tr "boot_ns")) in
        let gc k = Json.to_num (Json.member k (get tr "gc")) in
        let residual = e2e_wall -. replica_wall in
        let values =
          per_layer
          @ [
              ( "kernel.freeze.bytes_per_call",
                if freezes = 0. then 0. else getf tr "witness_bytes" /. freezes );
              ("rot.boot.p50_ms", if boots = [] then 0. else Stats.median boots /. 1e6);
              ("trace.wall_s", traced_wall);
              ("fleet.sched.residual_s", residual);
              ("fleet.sched.residual_frac", residual /. e2e_wall);
              ("trace.overhead_frac", (traced_wall /. replica_wall) -. 1.);
              ( "unattributed_frac",
                (traced_wall -. (getf tr "attributed_ns" /. 1e9)) /. traced_wall );
              ( "kernel.run.ns_per_syscall",
                let s = count "kernel.syscalls" in
                if s = 0. then 0. else layer Span.Run "self_ns" /. s );
              ("gc.minor_collections", gc "minor_collections");
              ("gc.major_collections", gc "major_collections");
              ("gc.minor_words", gc "minor_words");
              ("gc.pause_s", gc "pause_ns" /. 1e9);
            ]
          @ List.map (fun n -> (n, count n)) W.count_names
        in
        List.map (fun (n, unit, _) -> (n, (unit, List.assoc n values))) layer_metrics
  in
  { t_check; t_metrics; t_traced = (match t with tr :: _ -> Some tr.json | [] -> None) }

(* ===== output ===== *)

(* Host stamp: cores, OCaml version and the checkout's git HEAD, read
   from .git directly (a checkout without .git reads "unknown"). *)
let git_head () =
  let read path =
    try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" r) with
      | Some c -> c
      | None ->
          Option.value ~default:"unknown"
            (Option.bind (read ".git/packed-refs") (fun p ->
                 List.find_map
                   (fun line ->
                     match String.split_on_char ' ' line with
                     | [ c; name ] when name = r -> Some c
                     | _ -> None)
                   (String.split_on_char '\n' p))))
  | Some h -> h
  | None -> "unknown"

let host_json () =
  Json.Obj
    [
      ("nproc", num (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_head ()));
    ]

let print_check w c =
  Printf.printf "  %-12s correct=%b attempted=%d failed=%d fingerprint=%s\n" w.W.name
    c.correct c.attempted c.failed c.fingerprint;
  List.iter (fun p -> Printf.printf "  %-12s PROBLEM: %s\n" w.W.name p) c.problems

let print_run w r =
  print_check w r.r_check;
  List.iter
    (fun (name, (unit, s)) ->
      Printf.printf "  %-12s %-18s %14.6g %-8s (median of %d; q1 %.6g q3 %.6g; min %.6g max %.6g)\n"
        w.W.name name s.Stats.median unit s.Stats.n s.Stats.q1 s.Stats.q3 s.Stats.min s.Stats.max)
    r.r_metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-12s count %-28s %d\n" w.W.name k v) r.r_check.counts;
  flush stdout

let print_trace w r =
  print_check w r.t_check;
  List.iter
    (fun (name, (unit, v)) -> Printf.printf "  %-12s %-34s %14.6g %s\n" w.W.name name v unit)
    r.t_metrics;
  flush stdout

let check_json c =
  [
    ("correct", Json.Bool c.correct);
    ("attempted", num c.attempted);
    ("failed", num c.failed);
    ("fingerprint", Json.Str c.fingerprint);
    ("problems", Json.Arr (List.map (fun p -> Json.Str p) c.problems));
    counts_json c.counts;
  ]

let run_json r =
  Json.Obj
    (check_json r.r_check
    @ [
        ( "metrics",
          Json.Obj (List.map (fun (n, (unit, s)) -> (n, Stats.to_json unit s)) r.r_metrics) );
      ])

let trace_json r =
  Json.Obj
    (check_json r.t_check
    @ [
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, (unit, v)) ->
                 (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
               r.t_metrics) );
      ])

let result_file ~kind ~seed ~profile workloads =
  Json.Obj
    [
      ("kind", Json.Str kind);
      ("host", host_json ());
      ("seed", num seed);
      ("profile", Json.Str (key_of profiles profile));
      ("workloads", Json.Obj workloads);
    ]

(* Host-time Perfetto file: one process per workload. Thread 0 holds
   the full spans of the first [Span.full_units] units on the replica's
   own time axis (0 = start of the traced rep); thread 1 lays every
   other span out after the rep ends, one aggregated span per layer. *)
let perfetto traced =
  let ev ~pid ~tid ph name ts =
    Json.Obj
      [
        ("name", Json.Str name);
        ("cat", Json.Str "host");
        ("ph", Json.Str ph);
        ("ts", Json.Num ts);
        ("pid", num pid);
        ("tid", num tid);
      ]
  in
  let meta ~pid ~tid what name =
    Json.Obj
      [
        ("name", Json.Str what);
        ("ph", Json.Str "M");
        ("pid", num pid);
        ("tid", num tid);
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  let events =
    List.concat
      (List.mapi
         (fun pid (w, t) ->
           let layer_name i = Span.name (List.nth Span.layers i) in
           let spans =
             List.concat_map
               (fun s ->
                 match List.map Json.to_num (Json.to_list s) with
                 | [ i; a; b ] ->
                     let n = layer_name (int_of_float i) in
                     [ ev ~pid ~tid:0 "B" n (a /. 1e3); ev ~pid ~tid:0 "E" n (b /. 1e3) ]
                 | _ -> [])
               (Json.to_list (Json.member "spans" t))
           in
           let cursor = ref (Json.to_num (Json.member "wall_s" t) *. 1e6) in
           let aggregated =
             List.concat_map
               (fun l ->
                 let m = Json.member (Span.name l) (Json.member "layers" t) in
                 let rest = Json.to_num (Json.member "self_ns" m) -. Json.to_num (Json.member "kept_ns" m) in
                 if rest <= 0. then []
                 else begin
                   let a = !cursor in
                   cursor := a +. (rest /. 1e3);
                   [ ev ~pid ~tid:1 "B" (Span.name l) a; ev ~pid ~tid:1 "E" (Span.name l) !cursor ]
                 end)
               Span.layers
           in
           [
             meta ~pid ~tid:0 "process_name" (w.W.name ^ " (host time, traced replica)");
             meta ~pid ~tid:0 "thread_name" (Printf.sprintf "spans, first %d units" Span.full_units);
             meta ~pid ~tid:1 "thread_name" "aggregated, all later spans";
           ]
           @ spans @ aggregated)
         traced)
  in
  Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ns") ]

(* Parse a Perfetto file back: B/E balanced per thread with matching
   names, timestamps non-decreasing per process. *)
let check_perfetto path =
  let events = Json.to_list (Json.member "traceEvents" (Json.read_file path)) in
  let stacks = Hashtbl.create 8 and last = Hashtbl.create 8 in
  let spans = ref 0 in
  let ok =
    List.for_all
      (fun e ->
        let s k = Json.to_str (Json.member k e) and i k = Json.to_int (Json.member k e) in
        match s "ph" with
        | ("B" | "E") as ph ->
            let pid = i "pid" and key = (i "pid", i "tid") and ts = Json.to_num (Json.member "ts" e) in
            let monotone = ts >= Option.value ~default:neg_infinity (Hashtbl.find_opt last pid) in
            Hashtbl.replace last pid ts;
            let stack = Option.value ~default:[] (Hashtbl.find_opt stacks key) in
            monotone
            &&
            if ph = "B" then begin
              incr spans;
              Hashtbl.replace stacks key (s "name" :: stack);
              true
            end
            else (
              match stack with
              | top :: rest when top = s "name" ->
                  Hashtbl.replace stacks key rest;
                  true
              | _ -> false)
        | _ -> true)
      events
  in
  ok && !spans > 0 && Hashtbl.fold (fun _ st acc -> acc && st = []) stacks true

(* ===== compare ===== *)

type bound = { lower_better : bool; bound : float }

let read_spec path =
  List.map
    (fun m ->
      ( Json.to_str (Json.member "name" m),
        {
          lower_better = Json.to_str (Json.member "better" m) = "lower";
          bound = Json.to_num (Json.member "bound" m);
        } ))
    (Json.to_list (Json.member "end_to_end" (Json.read_file path)))

(* Verdict for one (metric, workload): a change beyond the bound is a
   regression or an improvement, unless either side's own spread is
   wider than the bound, which leaves it unresolved. *)
let verdict b sa sb =
  let worse =
    (if b.lower_better then sb.Stats.median -. sa.Stats.median
     else sa.Stats.median -. sb.Stats.median)
    /. Float.abs sa.Stats.median
  in
  let spread = Float.max (Stats.spread sa) (Stats.spread sb) in
  let v =
    if spread > b.bound then "unresolved"
    else if worse > b.bound then "REGRESSION"
    else if -.worse > b.bound then "improved"
    else "ok"
  in
  (worse, spread, v)

let compare_files ~spec a b =
  let spec = read_spec spec in
  let ja = Json.read_file a and jb = Json.read_file b in
  let wl j = Json.to_obj (Json.member "workloads" j) in
  let bad = ref 0 in
  Printf.printf "compare %s (A) -> %s (B); delta > 0 means B is worse\n" a b;
  Printf.printf "%-18s %-12s %14s %14s %8s %7s %7s  %s\n" "metric" "workload" "A median"
    "B median" "delta" "bound" "spread" "verdict";
  let workloads = List.filter (fun (n, _) -> List.mem_assoc n (wl jb)) (wl ja) in
  let metric_names =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, w) -> List.map fst (Json.to_obj (Json.member "metrics" w)))
         workloads)
  in
  let ordered =
    List.filter (fun n -> List.mem n metric_names) (List.map fst (e2e_metrics @ rot_metrics))
  in
  List.iter
    (fun metric ->
      List.iter
        (fun (wname, wa) ->
          let wb = List.assoc wname (wl jb) in
          let m w = Json.member metric (Json.member "metrics" w) in
          match (m wa, m wb) with
          | Json.Null, _ | _, Json.Null -> ()
          | ma, mb -> (
              let sa = Stats.of_json ma and sb = Stats.of_json mb in
              match List.assoc_opt metric spec with
              | Some bd ->
                  let worse, spread, v = verdict bd sa sb in
                  if v = "REGRESSION" then incr bad;
                  Printf.printf "%-18s %-12s %14.6g %14.6g %+7.2f%% %6.1f%% %6.1f%%  %s\n"
                    metric wname sa.Stats.median sb.Stats.median (100. *. worse)
                    (100. *. bd.bound) (100. *. spread) v
              | None ->
                  Printf.printf "%-18s %-12s %14.6g %14.6g %8s %7s %6.1f%%  (no bound)\n"
                    metric wname sa.Stats.median sb.Stats.median "" ""
                    (100. *. Float.max (Stats.spread sa) (Stats.spread sb))))
        workloads)
    ordered;
  (* Exact counts and fingerprints repeat bit for bit on the same code
     and seed; any difference is flagged. *)
  List.iter
    (fun (wname, wa) ->
      let wb = List.assoc wname (wl jb) in
      let fp w = Json.to_str (Json.member "fingerprint" w) in
      if fp wa <> fp wb then begin
        incr bad;
        Printf.printf "FINGERPRINT CHANGED %-12s %s -> %s\n" wname (fp wa) (fp wb)
      end;
      let counts w = Json.to_obj (Json.member "counts" w) in
      List.iter
        (fun (k, va) ->
          let vb = Json.member k (Json.Obj (counts wb)) in
          if vb <> va then begin
            incr bad;
            Printf.printf "COUNT CHANGED %-12s %-28s %s -> %s\n" wname k
              (Json.to_string va) (Json.to_string vb)
          end)
        (counts wa))
    workloads;
  Printf.printf "compare: %d flagged\n" !bad;
  if !bad > 0 then exit 1

(* ===== commands ===== *)

let reps_for seconds = max 3 (int_of_float (Float.round (seconds /. W.rep_target_s)))

(* A traced measurement spends its time on [rounds] (end-to-end,
   untraced replica) pairs plus one traced replica. *)
let rounds_for seconds = max 1 ((reps_for seconds - 1) / 2)

let selected = function None -> W.all | Some n -> [ W.find n ]

let run_cmd workload seed seconds profile out =
  let results =
    List.map
      (fun w ->
        let r = run_workload ~profile ~seed ~reps:(reps_for seconds) w in
        print_run w r;
        (w, r))
      (selected workload)
  in
  Option.iter
    (fun path ->
      Json.write_file path
        (result_file ~kind:"run" ~seed ~profile
           (List.map (fun (w, r) -> (w.W.name, run_json r)) results));
      Printf.printf "wrote %s\n" path)
    out;
  if List.exists (fun (_, r) -> not r.r_check.correct) results then exit 1

let trace_cmd workload seed seconds profile out trace_out =
  let results =
    List.map
      (fun w ->
        let r = trace_workload ~profile ~seed ~rounds:(rounds_for seconds) w in
        print_trace w r;
        (w, r))
      (selected workload)
  in
  Option.iter
    (fun path ->
      Json.write_file path
        (result_file ~kind:"trace" ~seed ~profile
           (List.map (fun (w, r) -> (w.W.name, trace_json r)) results));
      Printf.printf "wrote %s\n" path)
    out;
  Option.iter
    (fun path ->
      Json.write_file path
        (perfetto (List.filter_map (fun (w, r) -> Option.map (fun t -> (w, t)) r.t_traced) results));
      Printf.printf "wrote %s\n" path)
    trace_out;
  if List.exists (fun (_, r) -> not r.t_check.correct) results then exit 1

(* What run.sh calls: one workload, then one JSON line with every
   end-to-end metric (median over reps), or with [--trace 1] every
   per-layer metric. Exits 1 when outputs are wrong. *)
let bench_cmd workload seed seconds trace =
  let w = W.find workload in
  let c, metrics =
    if trace then begin
      let r = trace_workload ~profile:W.Full ~seed ~rounds:(rounds_for seconds) w in
      print_trace w r;
      (r.t_check, List.filter (fun (n, _) -> List.mem_assoc n spec_layer_metrics) r.t_metrics)
    end
    else begin
      let r = run_workload ~profile:W.Full ~seed ~reps:(reps_for seconds) w in
      print_run w r;
      ( r.r_check,
        List.filter_map
          (fun (n, _) ->
            Option.map (fun (unit, s) -> (n, (unit, s.Stats.median))) (List.assoc_opt n r.r_metrics))
          e2e_metrics )
    end
  in
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [
            ("correct", Json.Bool c.correct);
            ("attempted", num c.attempted);
            ("failed", num c.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, (unit, v)) ->
                     (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]));
  if not c.correct then exit 1

(* Tier-1 smoke: every workload at tiny size through the same child
   processes as a real run, asserting that the replica reproduces the
   end-to-end fingerprint, that the metric names match BENCHMARK.json
   both ways, and that the Perfetto file parses back. *)
let smoke_cmd spec =
  let spec = Json.read_file spec in
  let names k = List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member k spec)) in
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "smoke: %-58s %s\n%!" what (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let same_names declared emitted = List.sort compare declared = List.sort compare emitted in
  expect "BENCHMARK.json workloads are the suite's"
    (same_names (names "workloads") (List.map (fun w -> w.W.name) W.all));
  expect "BENCHMARK.json end_to_end metrics are the suite's"
    (same_names (names "end_to_end") (List.map fst e2e_metrics));
  expect "BENCHMARK.json per_layer metrics are the suite's"
    (same_names (names "per_layer") (List.map fst spec_layer_metrics));
  let traced =
    List.filter_map
      (fun w ->
        let r = run_workload ~profile:W.Smoke ~seed:default_seed ~reps:3 w in
        expect (w.W.name ^ ": end-to-end reps correct") r.r_check.correct;
        expect (w.W.name ^ ": every end-to-end metric emitted")
          (List.for_all (fun (n, _) -> List.mem_assoc n r.r_metrics) e2e_metrics);
        let t = trace_workload ~profile:W.Smoke ~seed:default_seed ~rounds:1 w in
        expect (w.W.name ^ ": replica reproduces the end-to-end fingerprint")
          (t.t_check.correct && t.t_check.fingerprint = r.r_check.fingerprint);
        expect (w.W.name ^ ": every per-layer metric emitted")
          (List.for_all (fun (n, _, _) -> List.mem_assoc n t.t_metrics) layer_metrics);
        List.iter (fun p -> Printf.printf "smoke:   %s\n" p) (r.r_check.problems @ t.t_check.problems);
        Option.map (fun tr -> (w, tr)) t.t_traced)
      W.all
  in
  let path = "smoke.perfetto.json" in
  Json.write_file path (perfetto traced);
  expect "Perfetto host-time file parses, balanced and monotone" (check_perfetto path);
  Printf.printf "smoke: %s\n" (if !failures = 0 then "PASS" else "FAIL");
  if !failures > 0 then exit 1

open Cmdliner

let workload_opt =
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"W"
       ~doc:"Only this workload (default: all four).")

let workload_req =
  Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"W" ~doc:"Workload to measure.")

let seed_arg =
  Arg.(value & opt int default_seed & info [ "seed" ] ~docv:"N"
       ~doc:"Workload seed; the same seed generates the same inputs.")

let seconds_arg =
  Arg.(value & opt float 20. & info [ "seconds" ] ~docv:"S"
       ~doc:"Measuring time per workload; sets the number of reps.")

let profile_arg =
  Arg.(value & opt (enum profiles) W.Full & info [ "profile" ] ~docv:"P"
       ~doc:"Workload sizes: $(b,full) (the benchmark) or $(b,smoke) (tiny).")

let out_arg = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Result file.")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
       ~doc:"Host-time Perfetto (Chrome trace-event) file.")

let spec_arg =
  Arg.(value & opt string "BENCHMARK.json" & info [ "spec" ] ~docv:"FILE"
       ~doc:"BENCHMARK.json with the metric bounds.")

let trace_flag =
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1"
       ~doc:"1: report the per-layer metrics of a traced run instead.")

let file_pos n name = Arg.(required & pos n (some string) None & info [] ~docv:name)

let mode_arg = Arg.(required & opt (some (enum modes)) None & info [ "mode" ])

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Measure end-to-end metrics")
      Term.(const run_cmd $ workload_opt $ seed_arg $ seconds_arg $ profile_arg $ out_arg);
    Cmd.v (Cmd.info "trace" ~doc:"Measure per-layer host time with a traced replica")
      Term.(const trace_cmd $ workload_opt $ seed_arg $ seconds_arg $ profile_arg $ out_arg
            $ trace_out_arg);
    Cmd.v (Cmd.info "compare" ~doc:"Compare two run result files against the bounds")
      Term.(const (fun a b spec -> compare_files ~spec a b) $ file_pos 0 "A.json"
            $ file_pos 1 "B.json" $ spec_arg);
    Cmd.v (Cmd.info "smoke" ~doc:"Tiny run of every workload with all checks")
      Term.(const smoke_cmd $ spec_arg);
    Cmd.v (Cmd.info "bench" ~doc:"Measure one workload; last line is one JSON object")
      Term.(const (fun w seed seconds trace -> bench_cmd w seed seconds (trace <> 0))
            $ workload_req $ seed_arg $ seconds_arg $ trace_flag);
    Cmd.v (Cmd.info "child" ~doc:"(internal) one rep in this process")
      Term.(const (fun workload seed profile mode -> child ~workload ~seed ~profile ~mode)
            $ workload_req $ seed_arg $ profile_arg $ mode_arg);
  ]

let () = exit (Cmd.eval (Cmd.group (Cmd.info "suite" ~doc:"repository benchmark") cmds))
