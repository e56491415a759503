let mask32 = 0xFFFFFFFF

let wrapping_add a b = (a + b) land mask32

let wrapping_sub a b = (a - b) land mask32

let expired ~reference ~dt ~now = wrapping_sub now reference >= dt

type t = {
  sim : Sim.t;
  irq : Irq.t;
  irq_line : int;
  cycles_per_tick : int;
  mutable client : unit -> unit;
  mutable armed : Event_queue.handle option;
  mutable compare : int;
  regs : Mmio.map;
  c_alarms_set : Tock_obs.Metrics.counter;
  c_fires : Tock_obs.Metrics.counter;
}

let now_ticks_raw sim cycles_per_tick =
  Sim.now sim / cycles_per_tick land mask32

let create sim irq ~irq_line ~cycles_per_tick =
  let regs =
    Mmio.map ~name:"timer" ~base:0x4000_0000
      [
        Mmio.reg ~name:"VALUE" ~offset:0 Mmio.Read_only
          ~on_read:(fun _ -> now_ticks_raw sim cycles_per_tick);
        Mmio.reg ~name:"COMPARE" ~offset:4 Mmio.Read_write;
        Mmio.reg ~name:"CTRL" ~offset:8 Mmio.Read_write;
      ]
  in
  let reg = Sim.metrics sim in
  let t =
    { sim; irq; irq_line; cycles_per_tick; client = ignore; armed = None;
      compare = 0; regs;
      c_alarms_set = Tock_obs.Metrics.counter reg "hw_timer.alarms_set";
      c_fires = Tock_obs.Metrics.counter reg "hw_timer.fires" }
  in
  Irq.register irq ~line:irq_line ~name:"timer" (fun () -> t.client ());
  Irq.enable irq ~line:irq_line;
  t

let frequency_hz t = Sim.clock_hz t.sim / t.cycles_per_tick

let now_ticks t = now_ticks_raw t.sim t.cycles_per_tick

let set_client t fn = t.client <- fn

let disarm t =
  (match t.armed with Some h -> Sim.cancel t.sim h | None -> ());
  t.armed <- None;
  Mmio.hw_set_field t.regs "CTRL" (Mmio.field ~offset:0 ~width:1) 0

let set_alarm t ~reference ~dt =
  disarm t;
  Tock_obs.Metrics.incr t.c_alarms_set;
  let reference = reference land mask32 and dt = dt land mask32 in
  let target = wrapping_add reference dt in
  t.compare <- target;
  Mmio.hw_set t.regs "COMPARE" target;
  Mmio.hw_set_field t.regs "CTRL" (Mmio.field ~offset:0 ~width:1) 1;
  let now = now_ticks t in
  let delta_ticks =
    if expired ~reference ~dt ~now then 1 (* next tick, like real compare hw
                                             raced by software *)
    else wrapping_sub target now
  in
  (* Convert the tick delta to a cycle delay, aligning to the next tick
     boundary. *)
  let cycles_into_tick = Sim.now t.sim mod t.cycles_per_tick in
  let delay = (delta_ticks * t.cycles_per_tick) - cycles_into_tick in
  let delay = max delay 0 in
  let handle =
    Sim.at t.sim ~delay (fun () ->
        t.armed <- None;
        Mmio.hw_set_field t.regs "CTRL"
          (Mmio.field ~offset:0 ~width:1)
          0;
        Tock_obs.Metrics.incr t.c_fires;
        let tr = Sim.trace_events t.sim in
        if Tock_obs.Trace.on tr then
          Tock_obs.Trace.emit tr ~ts:(Sim.now t.sim) ~tid:(-1)
            Tock_obs.Trace.Alarm_fire Tock_obs.Trace.Instant ~arg:t.compare
            ~text:"hw-timer";
        Irq.set_pending t.irq ~line:t.irq_line)
  in
  t.armed <- Some handle

let is_armed t = t.armed <> None

let registers t = t.regs
