(* Structured trace events: a bounded ring of typed begin/end spans and
   instants, replacing the printf-style string ring.

   Recording is allocation-free: the ring is an array of mutable event
   records preallocated at creation, and [emit] overwrites fields in
   place. Wrapping drops the oldest events and counts the drops — the
   exporters report that in their metadata rather than silently losing
   history.

   Timestamps are simulation cycles, supplied by the caller (the trace
   layer never advances or reads the clock itself: instrumentation must
   not perturb simulated time). tid -1 is kernel/hardware context; a
   process's tid is its pid. Exporters: Chrome trace-event JSON
   (chrome://tracing / Perfetto loadable, ts in microseconds) and a
   plain text timeline — both single-ring and multi-lane (one ring per
   pid lane, the fleet scheduler view). *)

type kind =
  | Syscall
  | Irq_raise
  | Irq_dispatch
  | Grant_enter
  | Alarm_fire
  | Mpu_check
  | Schedule
  | Sleep
  | Upcall
  | Note
  | Fault
  | Dispatch
  | Park
  | Resume
  | Fast_forward

type phase = Begin | End | Instant | Complete

type event = {
  mutable e_ts : int;
  mutable e_tid : int;
  mutable e_kind : kind;
  mutable e_phase : phase;
  mutable e_dur : int; (* cycles; only meaningful for [Complete] *)
  mutable e_arg : int;
  mutable e_text : string;
}

type t = {
  cap : int;
  ring : event array; (* length max(1, cap); reused in place *)
  mutable pos : int;  (* next write index *)
  mutable total : int; (* events ever emitted *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Trace.create: capacity < 0";
  {
    cap = capacity;
    ring =
      Array.init (max 1 capacity) (fun _ ->
          { e_ts = 0; e_tid = 0; e_kind = Note; e_phase = Instant; e_dur = 0;
            e_arg = 0; e_text = "" });
    pos = 0;
    total = 0;
  }

let on t = t.cap > 0

let total t = t.total

let retained t = min t.total t.cap

let dropped t = if t.total > t.cap then t.total - t.cap else 0

(* The ring write, split out of [emit] so the disabled path below
   compiles to a load + one branch + return with nothing spilled: the
   record body is only materialized behind the taken branch. Kept
   un-inlined on purpose — folding it back in is what cost 3.7 ns/op on
   every disabled-mode call in the seed measurement. *)
let[@inline never] record t ~ts ~tid kind phase ~dur ~arg ~text =
  let e = t.ring.(t.pos) in
  e.e_ts <- ts;
  e.e_tid <- tid;
  e.e_kind <- kind;
  e.e_phase <- phase;
  e.e_dur <- dur;
  e.e_arg <- arg;
  e.e_text <- text;
  t.pos <- (t.pos + 1) mod t.cap;
  t.total <- t.total + 1

let[@inline] emit t ~ts ~tid kind phase ~arg ~text =
  if t.cap > 0 then record t ~ts ~tid kind phase ~dur:0 ~arg ~text

let[@inline] emit_complete t ~ts ~dur ~tid kind ~arg ~text =
  if t.cap > 0 then record t ~ts ~tid kind Complete ~dur ~arg ~text

let note t ~ts text = emit t ~ts ~tid:(-1) Note Instant ~arg:0 ~text

(* Oldest-first iteration over retained events. The callback sees the
   live (reused) record: read it, don't stash it. *)
let iter t f =
  let n = retained t in
  for i = 0 to n - 1 do
    f t.ring.((t.pos - n + i + (2 * t.cap)) mod max 1 t.cap)
  done

let kind_name = function
  | Syscall -> "syscall"
  | Irq_raise -> "irq-raise"
  | Irq_dispatch -> "irq"
  | Grant_enter -> "grant-enter"
  | Alarm_fire -> "alarm-fire"
  | Mpu_check -> "mpu-check"
  | Schedule -> "schedule"
  | Sleep -> "sleep"
  | Upcall -> "upcall"
  | Note -> "note"
  | Fault -> "fault"
  | Dispatch -> "dispatch"
  | Park -> "park"
  | Resume -> "resume"
  | Fast_forward -> "fast-forward"

(* Human label. Notes render as their exact text. *)
let label e =
  match e.e_kind with
  | Note -> e.e_text
  | Irq_dispatch | Irq_raise ->
      Printf.sprintf "%s %d (%s)" (kind_name e.e_kind) e.e_arg e.e_text
  | _ ->
      if e.e_text = "" then kind_name e.e_kind
      else kind_name e.e_kind ^ " " ^ e.e_text

(* Retained events sorted by timestamp (stable, so same-cycle events
   keep emission order). Sorting matters because spans are emitted at
   their begin time, possibly after nested events were recorded. *)
let sorted_events t =
  let n = retained t in
  let arr = Array.make n None in
  let i = ref 0 in
  iter t (fun e ->
      arr.(!i) <- Some e;
      incr i);
  let evs = Array.map (fun e -> Option.get e) arr in
  (* stable sort by ts only *)
  let idx = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare evs.(a).e_ts evs.(b).e_ts with 0 -> compare a b | c -> c)
    idx;
  Array.map (fun i -> evs.(i)) idx

let to_text ~clock_hz t =
  let buf = Buffer.create 4096 in
  let evs = sorted_events t in
  if dropped t > 0 then
    Buffer.add_string buf
      (Printf.sprintf "# %d older events dropped (ring capacity %d)\n"
         (dropped t) t.cap);
  Array.iter
    (fun e ->
      let us = float_of_int e.e_ts *. 1e6 /. float_of_int clock_hz in
      let ph =
        match e.e_phase with
        | Begin -> "B"
        | End -> "E"
        | Instant -> "."
        | Complete -> "X"
      in
      Buffer.add_string buf
        (Printf.sprintf "[%12d cyc %12.3f us] tid=%-3d %s %s\n" e.e_ts us
           e.e_tid ph (label e)))
    evs;
  Buffer.contents buf

(* The body of a JSON string: quote, backslash and control bytes
   escaped, every other byte (UTF-8 included) as it is. Every JSON
   renderer of lib/obs quotes names through this. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Chrome trace-event JSON ("JSON object format"): loadable in
   chrome://tracing and Perfetto. pid = board (or scheduler domain in
   the fleet's multi-lane export), tid = process (+1 so the kernel's -1
   maps to thread 0); metadata events name both, and otherData carries
   the drop count and clock rate. *)
type lane = {
  lane_pid : int;
  lane_name : string;
  lane_tids : (int * string) list;
  lane_trace : t;
}

(* One lane's metadata records and sorted events, appended through
   [add] (which handles the JSON comma discipline). *)
let add_lane ~clock_hz add lane =
  let pid = lane.lane_pid in
  add
    (Printf.sprintf
       "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": 0, \
        \"args\": {\"name\": \"%s\"}}"
       pid (escape lane.lane_name));
  List.iter
    (fun (tid, name) ->
      add
        (Printf.sprintf
           "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": \
            %d, \"args\": {\"name\": \"%s\"}}"
           pid (tid + 1) (escape name)))
    lane.lane_tids;
  let evs = sorted_events lane.lane_trace in
  Array.iter
    (fun e ->
      let us = float_of_int e.e_ts *. 1e6 /. float_of_int clock_hz in
      let ph, extra =
        match e.e_phase with
        | Begin -> ("B", "")
        | End -> ("E", "")
        | Instant -> ("i", ", \"s\": \"t\"")
        | Complete ->
            ( "X",
              Printf.sprintf ", \"dur\": %.3f"
                (float_of_int e.e_dur *. 1e6 /. float_of_int clock_hz) )
      in
      add
        (Printf.sprintf
           "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\"%s, \"ts\": \
            %.3f, \"pid\": %d, \"tid\": %d, \"args\": {\"arg\": %d, \
            \"cycles\": %d}}"
           (escape (label e)) (kind_name e.e_kind) ph extra us pid
           (e.e_tid + 1) e.e_arg e.e_ts))
    evs

let to_chrome_json_lanes ~clock_hz lanes =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\n\"displayTimeUnit\": \"ms\",\n";
  let drops = List.fold_left (fun a l -> a + dropped l.lane_trace) 0 lanes in
  let totals = List.fold_left (fun a l -> a + total l.lane_trace) 0 lanes in
  Buffer.add_string buf
    (Printf.sprintf
       "\"otherData\": {\"clock_hz\": %d, \"dropped_events\": %d, \
        \"total_events\": %d},\n"
       clock_hz drops totals);
  Buffer.add_string buf "\"traceEvents\": [\n";
  let first = ref true in
  let add line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  List.iter (add_lane ~clock_hz add) lanes;
  Buffer.add_string buf "\n]\n}\n";
  Buffer.contents buf

let to_chrome_json ?(pid = 0) ?(process_name = "board")
    ?(tid_names = [ (-1, "kernel") ]) ~clock_hz t =
  to_chrome_json_lanes ~clock_hz
    [ { lane_pid = pid; lane_name = process_name; lane_tids = tid_names;
        lane_trace = t } ]
