type meter_state = {
  m_name : string;
  mutable current_ua : int;
  mutable last_change : int; (* cycle of last current change *)
  mutable ua_cycles : float; (* integrated µA·cycles *)
}

type meter = meter_state

type t = {
  mutable now : int;
  clock_hz : int;
  events : Event_queue.t;
  root_rng : Tock_crypto.Prng.t;
  mutable active_cycles : int;
  mutable sleep_cycles : int;
  mutable meters : meter_state list;
  tr : Tock_obs.Trace.t;
  reg : Tock_obs.Metrics.t;
  mutable next_due : int;
      (* Cached lower bound on the earliest event deadline ([max_int] =
         none known). [spend] only probes the queue once [now] crosses
         it, so the no-event-due common case is a single comparison. The
         bound may be stale-early after a cancel (a spurious probe), but
         never stale-late: every [at] lowers it and every probe
         re-synchronises it. *)
}

let default_trace_capacity = 1024

let create ?(seed = 0x70CC_2025L) ?(clock_hz = 16_000_000)
    ?(trace_capacity = default_trace_capacity) () =
  if trace_capacity < 0 then invalid_arg "Sim.create: trace_capacity < 0";
  let reg = Tock_obs.Metrics.create () in
  let t =
    {
      now = 0;
      clock_hz;
      events = Event_queue.create ();
      root_rng = Tock_crypto.Prng.create ~seed;
      active_cycles = 0;
      sleep_cycles = 0;
      meters = [];
      tr = Tock_obs.Trace.create ~capacity:trace_capacity;
      reg;
      next_due = max_int;
    }
  in
  (* Hardware-side gauges, resolved once and published at snapshot
     time, never from the hot loop. *)
  let g = Tock_obs.Metrics.gauge reg in
  let g_now = g "sim.now" and g_active = g "sim.active_cycles"
  and g_sleep = g "sim.sleep_cycles" and g_events = g "sim.trace_events"
  and g_dropped = g "sim.trace_dropped" in
  Tock_obs.Metrics.on_snapshot reg (fun () ->
      Tock_obs.Metrics.set g_now t.now;
      Tock_obs.Metrics.set g_active t.active_cycles;
      Tock_obs.Metrics.set g_sleep t.sleep_cycles;
      Tock_obs.Metrics.set g_events (Tock_obs.Trace.total t.tr);
      Tock_obs.Metrics.set g_dropped (Tock_obs.Trace.dropped t.tr));
  t

let now t = t.now

let clock_hz t = t.clock_hz

let rng t = t.root_rng

let settle_meter t m =
  let dt = t.now - m.last_change in
  if dt > 0 then m.ua_cycles <- m.ua_cycles +. (float_of_int m.current_ua *. float_of_int dt);
  m.last_change <- t.now

(* Fire everything due and re-synchronise the cached deadline. Events
   fired may schedule new events (updating [next_due] through [at]);
   [Event_queue.run_due] keeps draining until the head is in the
   future, so the final probe is exact. *)
let fire_due t =
  let fired = Event_queue.run_due t.events ~now:t.now in
  t.next_due <- Event_queue.next_deadline t.events;
  fired > 0

let run_due_events t = if t.now < t.next_due then false else fire_due t

let spend t n =
  assert (n >= 0);
  t.now <- t.now + n;
  t.active_cycles <- t.active_cycles + n;
  if t.now >= t.next_due then ignore (fire_due t)

let at t ~delay fn =
  assert (delay >= 0);
  let time = t.now + delay in
  if time < t.next_due then t.next_due <- time;
  Event_queue.schedule t.events ~time fn

let cancel t h = Event_queue.cancel t.events h

let event_times t = Event_queue.live_times t.events

let next_deadline t = Event_queue.next_deadline t.events

let advance_to_next_event t =
  let deadline = Event_queue.next_deadline t.events in
  if deadline = max_int then false
  else begin
    if deadline > t.now then begin
      t.sleep_cycles <- t.sleep_cycles + (deadline - t.now);
      t.now <- deadline
    end;
    ignore (fire_due t);
    true
  end

let sleep_until t deadline =
  (* Fire intervening events at their own deadlines: one queue probe per
     fired batch (the probe that found the deadline is the same one that
     positions the clock), not a probe-then-re-probe per iteration. *)
  let rec loop () =
    let e = Event_queue.next_deadline t.events in
    if e <= deadline then begin
      if e > t.now then begin
        t.sleep_cycles <- t.sleep_cycles + (e - t.now);
        t.now <- e
      end;
      ignore (fire_due t);
      loop ()
    end
    else begin
      if deadline > t.now then begin
        t.sleep_cycles <- t.sleep_cycles + (deadline - t.now);
        t.now <- deadline
      end;
      t.next_due <- e
    end
  in
  loop ()

let active_cycles t = t.active_cycles

let sleep_cycles t = t.sleep_cycles

(* Thaw support: re-establish an exact clock position without modelling
   the elapsed time as activity or sleep. The cached deadline is
   re-synchronised from the queue — the warp may move [now] in either
   direction, and the stale-early/never-stale-late contract must keep
   holding afterwards. *)
let warp t ~now ~active_cycles ~sleep_cycles ~rng_state =
  t.now <- now;
  t.active_cycles <- active_cycles;
  t.sleep_cycles <- sleep_cycles;
  Tock_crypto.Prng.set_state t.root_rng rng_state;
  t.next_due <- Event_queue.next_deadline t.events

let rng_state t = Tock_crypto.Prng.state t.root_rng

let meter t ~name =
  let m = { m_name = name; current_ua = 0; last_change = t.now; ua_cycles = 0. } in
  t.meters <- m :: t.meters;
  m

let meter_set_ua t m ua =
  settle_meter t m;
  m.current_ua <- ua

let microjoules t m =
  settle_meter t m;
  (* µA·cycles -> µJ at 3.3 V: I[µA] * t[s] * V = µA·cycles/hz * 3.3 -> µW·s = µJ *)
  m.ua_cycles /. float_of_int t.clock_hz *. 3.3

let energy_report t =
  List.rev_map (fun m -> (m.m_name, microjoules t m)) t.meters

let total_microjoules t =
  List.fold_left (fun acc (_, uj) -> acc +. uj) 0. (energy_report t)

let trace_events t = t.tr

let metrics t = t.reg
