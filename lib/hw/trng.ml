type t = {
  sim : Sim.t;
  irq : Irq.t;
  irq_line : int;
  cycles_per_word : int;
  rng : Tock_crypto.Prng.t;
  mutable client : int array -> unit;
  mutable busy : bool;
  mutable completed : int array option;
}

let create sim irq ~irq_line ~cycles_per_word =
  let t =
    {
      sim;
      irq;
      irq_line;
      cycles_per_word;
      rng = Tock_crypto.Prng.split (Sim.rng sim);
      client = ignore;
      busy = false;
      completed = None;
    }
  in
  Irq.register irq ~line:irq_line ~name:"trng" (fun () ->
      match t.completed with
      | Some words ->
          t.completed <- None;
          t.client words
      | None -> ());
  Irq.enable irq ~line:irq_line;
  t

let set_client t fn = t.client <- fn

let request t ~count =
  if t.busy then Error "trng busy"
  else if count <= 0 then Error "bad count"
  else begin
    t.busy <- true;
    ignore
      (Sim.at t.sim ~delay:(count * t.cycles_per_word) (fun () ->
           t.busy <- false;
           t.completed <-
             Some
               (Array.init count (fun _ ->
                    Int64.to_int (Tock_crypto.Prng.next_int64 t.rng)
                    land 0xFFFFFFFF));
           Irq.set_pending t.irq ~line:t.irq_line));
    Ok ()
  end
