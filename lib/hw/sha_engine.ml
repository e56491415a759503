type mode =
  | Sha of Tock_crypto.Sha256.t
  | Hmac of Tock_crypto.Hmac.t

type completion = Data_done | Digest_done of bytes

type t = {
  sim : Sim.t;
  irq : Irq.t;
  irq_line : int;
  cycles_per_block : int;
  mutable mode : mode;
  mutable busy : bool;
  mutable data_client : unit -> unit;
  mutable digest_client : bytes -> unit;
  mutable completed : completion option;
}

let create sim irq ~irq_line ~cycles_per_block =
  let t =
    {
      sim;
      irq;
      irq_line;
      cycles_per_block;
      mode = Sha (Tock_crypto.Sha256.init ());
      busy = false;
      data_client = ignore;
      digest_client = ignore;
      completed = None;
    }
  in
  Irq.register irq ~line:irq_line ~name:"sha" (fun () ->
      match t.completed with
      | Some Data_done ->
          t.completed <- None;
          t.data_client ()
      | Some (Digest_done d) ->
          t.completed <- None;
          t.digest_client d
      | None -> ());
  Irq.enable irq ~line:irq_line;
  t

let set_mode_sha256 t =
  if t.busy then Error "sha engine busy"
  else begin
    t.mode <- Sha (Tock_crypto.Sha256.init ());
    Ok ()
  end

let set_mode_hmac t ~key =
  if t.busy then Error "sha engine busy"
  else begin
    t.mode <- Hmac (Tock_crypto.Hmac.init ~key);
    Ok ()
  end

let add_data t b ~off ~len =
  if t.busy then Error "sha engine busy"
  else if off < 0 || len < 0 || off + len > Bytes.length b then
    Error "bad range"
  else begin
    t.busy <- true;
    (match t.mode with
    | Sha h -> Tock_crypto.Sha256.feed h b ~off ~len
    | Hmac h -> Tock_crypto.Hmac.feed h b ~off ~len);
    let blocks = (len + 63) / 64 in
    ignore
      (Sim.at t.sim ~delay:(max 1 blocks * t.cycles_per_block) (fun () ->
           t.busy <- false;
           t.completed <- Some Data_done;
           Irq.set_pending t.irq ~line:t.irq_line));
    Ok ()
  end

let run t =
  if t.busy then Error "sha engine busy"
  else begin
    t.busy <- true;
    let digest =
      match t.mode with
      | Sha h -> Tock_crypto.Sha256.finalize h
      | Hmac h -> Tock_crypto.Hmac.finalize h
    in
    t.mode <- Sha (Tock_crypto.Sha256.init ());
    ignore
      (Sim.at t.sim ~delay:t.cycles_per_block (fun () ->
           t.busy <- false;
           t.completed <- Some (Digest_done digest);
           Irq.set_pending t.irq ~line:t.irq_line));
    Ok ()
  end

let set_data_client t fn = t.data_client <- fn

let set_digest_client t fn = t.digest_client <- fn
