type t = {
  sim : Sim.t;
  op : (int * int) Completion.t; (* channel, clamped sample *)
  channels : (int -> int) array;
  cycles_per_sample : int;
}

let create sim irq ~irq_line ~channels ~cycles_per_sample =
  {
    sim;
    op = Completion.create sim irq ~line:irq_line ~name:"adc";
    channels;
    cycles_per_sample;
  }

let channel_count t = Array.length t.channels

let set_client t fn =
  Completion.set_client t.op (fun (channel, value) -> fn ~channel ~value)

let sample t ~channel =
  if Completion.busy t.op then Error (Completion.Busy "adc busy")
  else if channel < 0 || channel >= Array.length t.channels then
    Error (Completion.Invalid "bad channel")
  else
    Completion.start t.op ~delay:t.cycles_per_sample (fun () ->
        let raw = t.channels.(channel) (Sim.now t.sim) in
        (channel, max 0 (min 4095 raw)))
