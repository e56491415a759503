type line_state = {
  mutable pending : bool;
  mutable enabled : bool;
  mutable handler : (unit -> unit) option;
  mutable name : string;
  mutable raised_at : int;
      (* cycle the line last became pending-and-enabled; dispatch
         latency = service time - raised_at *)
  mutable ctr : Tock_obs.Metrics.counter option;
      (* per-line serviced counter, registered with the line's name *)
}

type t = {
  sim : Sim.t;
  lines : line_state array;
  mutable pending_count : int; (* pending AND enabled *)
  c_serviced : Tock_obs.Metrics.counter;
  h_latency : Tock_obs.Metrics.histogram;
      (* raise->dispatch latency in cycles, all lines *)
}

let create ?(lines = 64) sim =
  let reg = Sim.metrics sim in
  {
    sim;
    lines =
      Array.init lines (fun _ ->
          { pending = false; enabled = false; handler = None; name = "?";
            raised_at = 0; ctr = None });
    pending_count = 0;
    c_serviced = Tock_obs.Metrics.counter reg "irq.serviced";
    h_latency = Tock_obs.Metrics.histogram reg "irq.dispatch_cycles";
  }

let check_line t line =
  if line < 0 || line >= Array.length t.lines then invalid_arg "Irq: bad line"

let register t ~line ~name fn =
  check_line t line;
  t.lines.(line).handler <- Some fn;
  t.lines.(line).name <- name;
  t.lines.(line).ctr <-
    Some
      (Tock_obs.Metrics.counter (Sim.metrics t.sim)
         ("irq." ^ name ^ ".serviced"))

let note_raise t i (l : line_state) =
  l.raised_at <- Sim.now t.sim;
  let tr = Sim.trace_events t.sim in
  if Tock_obs.Trace.on tr then
    Tock_obs.Trace.emit tr ~ts:l.raised_at ~tid:(-1) Tock_obs.Trace.Irq_raise
      Tock_obs.Trace.Instant ~arg:i ~text:l.name

let set_pending t ~line =
  check_line t line;
  let l = t.lines.(line) in
  if not l.pending then begin
    l.pending <- true;
    if l.enabled then begin
      t.pending_count <- t.pending_count + 1;
      note_raise t line l
    end
  end

let enable t ~line =
  check_line t line;
  let l = t.lines.(line) in
  if not l.enabled then begin
    l.enabled <- true;
    if l.pending then begin
      t.pending_count <- t.pending_count + 1;
      (* Latched while masked: the dispatch-latency clock starts at
         unmask, as on real hardware. *)
      note_raise t line l
    end
  end

let has_pending t = t.pending_count > 0

let service t =
  let ran = ref 0 in
  let tr = Sim.trace_events t.sim in
  let lines = t.lines in
  (* Sweep the lines in order, wrapping, while an enabled line is
     pending; handlers may assert new lines. Stopping as soon as none is
     left services exactly what whole sweeps would, in the same order. *)
  let i = ref 0 in
  while t.pending_count > 0 do
    let l = lines.(!i) in
    if l.pending && l.enabled then begin
      l.pending <- false;
      t.pending_count <- t.pending_count - 1;
      incr ran;
      let now = Sim.now t.sim in
      Tock_obs.Metrics.incr t.c_serviced;
      (match l.ctr with Some c -> Tock_obs.Metrics.incr c | None -> ());
      Tock_obs.Metrics.observe t.h_latency (now - l.raised_at);
      if Tock_obs.Trace.on tr then
        Tock_obs.Trace.emit tr ~ts:now ~tid:(-1) Tock_obs.Trace.Irq_dispatch
          Tock_obs.Trace.Instant ~arg:!i ~text:l.name;
      match l.handler with Some fn -> fn () | None -> ()
    end;
    i := if !i + 1 = Array.length lines then 0 else !i + 1
  done;
  !ran
