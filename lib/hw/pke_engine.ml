type t = {
  sim : Sim.t;
  irq : Irq.t;
  irq_line : int;
  cycles_per_verify : int;
  mutable client : bool -> unit;
  mutable busy : bool;
  mutable completed : bool option;
}

let create sim irq ~irq_line ~cycles_per_verify =
  let t =
    {
      sim;
      irq;
      irq_line;
      cycles_per_verify;
      client = ignore;
      busy = false;
      completed = None;
    }
  in
  Irq.register irq ~line:irq_line ~name:"pke" (fun () ->
      match t.completed with
      | Some verdict ->
          t.completed <- None;
          t.client verdict
      | None -> ());
  Irq.enable irq ~line:irq_line;
  t

let set_client t fn = t.client <- fn

let verify t ~pk ~msg ~signature =
  if t.busy then Error "pke engine busy"
  else begin
    t.busy <- true;
    let verdict = Tock_crypto.Schnorr.verify pk msg signature in
    ignore
      (Sim.at t.sim ~delay:t.cycles_per_verify (fun () ->
           t.busy <- false;
           t.completed <- Some verdict;
           Irq.set_pending t.irq ~line:t.irq_line));
    Ok ()
  end
