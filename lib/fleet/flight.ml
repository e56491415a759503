(* Fault flight recorder artifacts ("TCKFLT02").

   When a fleet board faults a process, panics its kernel, or the run
   ends in SLO breach, the runner captures everything a postmortem
   needs into one self-contained dump: the cause, the last-N trace
   events from the board's ring, the full packed metrics snapshot, and
   (for board-level causes) a [Kernel.freeze] witness that can be
   thawed back into a live board for inspection.

   An artifact is a [Frame] with sections [cause] (the cause, board,
   clock, clock rate and int64 seed), [events], and, when captured,
   [metrics] (the named packed image: [tock_sim postmortem] decodes it
   in a fresh process, which has no layouts interned) and [witness]
   (the [TCKSNP03] bytes, which [Kernel.thaw] checks on its own). Trace
   kinds and phases are stored as strings, not variant tags, so an
   artifact written by one build renders under another even if the
   kind enum grew in between. *)

module Frame = Tock_obs.Frame
module Metrics = Tock_obs.Metrics
module Trace = Tock_obs.Trace

let magic = "TCKFLT02"

type cause =
  | Fault of { fl_proc : string; fl_reason : string }
  | Panic of string
  | Slo_breach of string

type event = {
  fe_ts : int;
  fe_tid : int;
  fe_kind : string;
  fe_phase : string; (* "B" | "E" | "i" | "X" *)
  fe_dur : int;
  fe_arg : int;
  fe_text : string;
}

type artifact = {
  fa_cause : cause;
  fa_board : int; (* board index; -1 for fleet-level causes *)
  fa_seed : int64; (* fleet seed, enough to rebuild the board *)
  fa_clock : int; (* board clock at capture, cycles *)
  fa_clock_hz : int;
  fa_events : event list; (* oldest first *)
  fa_metrics : Metrics.packed option;
  fa_witness : string option; (* Kernel.freeze bytes *)
}

let cause_name = function
  | Fault _ -> "fault"
  | Panic _ -> "panic"
  | Slo_breach _ -> "slo"

let filename a =
  if a.fa_board < 0 then Printf.sprintf "flt-fleet-%s.tckflt" (cause_name a.fa_cause)
  else Printf.sprintf "flt-board%05d-%s.tckflt" a.fa_board (cause_name a.fa_cause)

(* Events an artifact keeps: the tail of the board's ring. *)
let max_events = 256

(* Last [max_events] retained events of a ring, oldest first. *)
let events_of_trace tr =
  let newest_first = ref [] in
  Trace.iter tr (fun e ->
      newest_first :=
        {
          fe_ts = e.Trace.e_ts;
          fe_tid = e.Trace.e_tid;
          fe_kind = Trace.kind_name e.Trace.e_kind;
          fe_phase =
            (match e.Trace.e_phase with
            | Trace.Begin -> "B"
            | Trace.End -> "E"
            | Trace.Instant -> "i"
            | Trace.Complete -> "X");
          fe_dur = e.Trace.e_dur;
          fe_arg = e.Trace.e_arg;
          fe_text = e.Trace.e_text;
        }
        :: !newest_first);
  let rec take k = function
    | [] -> []
    | x :: t -> if k = 0 then [] else x :: take (k - 1) t
  in
  List.rev (take max_events !newest_first)

(* Frame order; [metrics] and [witness] are present only when
   captured. *)
let section_names = [ "cause"; "events"; "metrics"; "witness" ]

let encode a =
  let cause b =
    (match a.fa_cause with
    | Fault { fl_proc; fl_reason } ->
        Frame.add_int b 0;
        Frame.add_string b fl_proc;
        Frame.add_string b fl_reason
    | Panic m ->
        Frame.add_int b 1;
        Frame.add_string b m
    | Slo_breach m ->
        Frame.add_int b 2;
        Frame.add_string b m);
    Frame.add_int b a.fa_board;
    Frame.add_int b a.fa_clock;
    Frame.add_int b a.fa_clock_hz;
    Frame.add_int64 b a.fa_seed
  in
  let events b =
    Frame.add_list b
      (fun e ->
        Frame.add_int b e.fe_ts;
        Frame.add_int b e.fe_tid;
        Frame.add_string b e.fe_kind;
        Frame.add_string b e.fe_phase;
        Frame.add_int b e.fe_dur;
        Frame.add_int b e.fe_arg;
        Frame.add_string b e.fe_text)
      a.fa_events
  in
  let metrics p = ("metrics", fun b -> Metrics.packed_to_buffer b p) in
  let witness w = ("witness", fun b -> Buffer.add_string b w) in
  Frame.encode magic
    (("cause", cause) :: ("events", events)
    :: List.filter_map Fun.id
         [ Option.map metrics a.fa_metrics; Option.map witness a.fa_witness ])

let decode s =
  let ( let* ) = Result.bind in
  let* f = Frame.decode ~magic ~sections:section_names s in
  let optional name read =
    if Frame.mem f name then Result.map Option.some (Frame.read f name read)
    else Ok None
  in
  let* a =
    Frame.read f "cause" (fun r ->
        let fa_cause =
          match Frame.int r with
          | 0 ->
              let fl_proc = Frame.string r in
              let fl_reason = Frame.string r in
              Fault { fl_proc; fl_reason }
          | 1 -> Panic (Frame.string r)
          | 2 -> Slo_breach (Frame.string r)
          | n -> Frame.fail "unknown cause tag %d" n
        in
        let fa_board = Frame.int r in
        let fa_clock = Frame.int r in
        let fa_clock_hz = Frame.int r in
        if fa_clock_hz <= 0 then Frame.fail "clock rate %d Hz" fa_clock_hz;
        { fa_cause; fa_board; fa_seed = Frame.int64 r; fa_clock; fa_clock_hz;
          fa_events = []; fa_metrics = None; fa_witness = None })
  in
  let* fa_events =
    Frame.read f "events" (fun r ->
        (* seven words at least: four ints, three empty strings *)
        Frame.list r ~min:56 (fun r ->
            let fe_ts = Frame.int r in
            let fe_tid = Frame.int r in
            let fe_kind = Frame.string r in
            let fe_phase = Frame.string r in
            let fe_dur = Frame.int r in
            let fe_arg = Frame.int r in
            { fe_ts; fe_tid; fe_kind; fe_phase; fe_dur; fe_arg; fe_text = Frame.string r }))
  in
  let* fa_metrics =
    optional "metrics" (fun r ->
        match Metrics.packed_of_string (Frame.rest r) with
        | Ok p -> p
        | Error e -> Frame.fail "%s" e)
  in
  let* fa_witness = optional "witness" Frame.rest in
  Ok { a with fa_events; fa_metrics; fa_witness }

let describe_cause = function
  | Fault { fl_proc; fl_reason } ->
      Printf.sprintf "process fault: %s (%s)" fl_proc fl_reason
  | Panic m -> Printf.sprintf "kernel panic: %s" m
  | Slo_breach m -> Printf.sprintf "SLO breach: %s" m

let render a =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%s postmortem\n" magic);
  Buffer.add_string buf (Printf.sprintf "cause:   %s\n" (describe_cause a.fa_cause));
  if a.fa_board >= 0 then
    Buffer.add_string buf (Printf.sprintf "board:   %d\n" a.fa_board);
  Buffer.add_string buf
    (Printf.sprintf "seed:    %Ld\nclock:   %d cyc @ %d Hz\n" a.fa_seed
       a.fa_clock a.fa_clock_hz);
  Buffer.add_string buf
    (Printf.sprintf "\n-- timeline (last %d events, oldest first) --\n"
       (List.length a.fa_events));
  List.iter
    (fun e ->
      let us = float_of_int e.fe_ts *. 1e6 /. float_of_int a.fa_clock_hz in
      Buffer.add_string buf
        (Printf.sprintf "[%12d cyc %12.3f us] tid=%-3d %s %-12s %s\n" e.fe_ts
           us e.fe_tid e.fe_phase e.fe_kind
           (if e.fe_text = "" then Printf.sprintf "arg=%d" e.fe_arg
            else e.fe_text)))
    a.fa_events;
  Buffer.add_string buf "\n-- metrics --\n";
  (match a.fa_metrics with
  | None -> Buffer.add_string buf "(none captured)\n"
  | Some p -> (
      match Metrics.unpack p with
      | Ok snap -> Buffer.add_string buf (Metrics.render_text snap)
      | Error e ->
          Buffer.add_string buf (Printf.sprintf "(corrupt metrics: %s)\n" e)));
  Buffer.add_string buf
    (match a.fa_witness with
    | None -> "\nwitness: none\n"
    | Some w ->
        Printf.sprintf "\nwitness: %d bytes (%s)\n" (String.length w)
          (if String.length w >= 8 then String.sub w 0 8 else "short"));
  Buffer.contents buf
