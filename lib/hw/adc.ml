type t = {
  sim : Sim.t;
  irq : Irq.t;
  irq_line : int;
  channels : (int -> int) array;
  cycles_per_sample : int;
  mutable client : channel:int -> value:int -> unit;
  mutable busy : bool;
  mutable completed : (int * int) option;
}

let create sim irq ~irq_line ~channels ~cycles_per_sample =
  let t =
    {
      sim;
      irq;
      irq_line;
      channels;
      cycles_per_sample;
      client = (fun ~channel:_ ~value:_ -> ());
      busy = false;
      completed = None;
    }
  in
  Irq.register irq ~line:irq_line ~name:"adc" (fun () ->
      match t.completed with
      | Some (channel, value) ->
          t.completed <- None;
          t.client ~channel ~value
      | None -> ());
  Irq.enable irq ~line:irq_line;
  t

let channel_count t = Array.length t.channels

let set_client t fn = t.client <- fn

let sample t ~channel =
  if t.busy then Error "adc busy"
  else if channel < 0 || channel >= Array.length t.channels then
    Error "bad channel"
  else begin
    t.busy <- true;
    ignore
      (Sim.at t.sim ~delay:t.cycles_per_sample (fun () ->
           t.busy <- false;
           let raw = t.channels.(channel) (Sim.now t.sim) in
           let clamped = max 0 (min 4095 raw) in
           t.completed <- Some (channel, clamped);
           Irq.set_pending t.irq ~line:t.irq_line));
    Ok ()
  end
