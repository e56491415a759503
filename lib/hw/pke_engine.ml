type t = { op : bool Completion.t; cycles_per_verify : int }

let create sim irq ~irq_line ~cycles_per_verify =
  { op = Completion.create sim irq ~line:irq_line ~name:"pke"; cycles_per_verify }

let set_client t fn = Completion.set_client t.op fn

let verify t ~pk ~msg ~signature =
  if Completion.busy t.op then Error (Completion.Busy "pke engine busy")
  else
    let verdict = Tock_crypto.Schnorr.verify pk msg signature in
    Completion.start t.op ~delay:t.cycles_per_verify (fun () -> verdict)
