type t = {
  op : int array Completion.t;
  cycles_per_word : int;
  rng : Tock_crypto.Prng.t;
}

let create sim irq ~irq_line ~cycles_per_word =
  {
    op = Completion.create sim irq ~line:irq_line ~name:"trng";
    cycles_per_word;
    rng = Tock_crypto.Prng.split (Sim.rng sim);
  }

let set_client t fn = Completion.set_client t.op fn

let request t ~count =
  if Completion.busy t.op then Error (Completion.Busy "trng busy")
  else if count <= 0 then Error (Completion.Invalid "bad count")
  else
    Completion.start t.op ~delay:(count * t.cycles_per_word) (fun () ->
        Array.init count (fun _ ->
            Int64.to_int (Tock_crypto.Prng.next_int64 t.rng) land 0xFFFFFFFF))
