let max_payload = 127

let broadcast = 0xFFFF

let bytes_per_second = 31_250 (* 250 kbit/s *)

type state = Off | Listening | Transmitting

type radio = {
  sim : Sim.t;
  ether : ether;
  irq : Irq.t;
  irq_line : int;
  r_addr : int;
  mutable r_state : state;
  mutable resume_state : state;
  mutable tx_client : unit -> unit;
  mutable rx_client : src:int -> bytes -> unit;
  mutable pending_rx : (int * bytes) list; (* delivered, awaiting top half *)
  mutable pending_tx_done : bool;
  meter : Sim.meter;
}

and ether = {
  e_sim : Sim.t;
  loss_prob : float;
  e_rng : Tock_crypto.Prng.t;
  mutable radios : radio list;
  mutable delivered : int;
  mutable lost : int;
  mutable collisions : int;
  mutable last_tx_end : int;
}

module Ether = struct
  type t = ether

  let create sim ?(loss_prob = 0.0) () =
    {
      e_sim = sim;
      loss_prob;
      e_rng = Tock_crypto.Prng.split (Sim.rng sim);
      radios = [];
      delivered = 0;
      lost = 0;
      collisions = 0;
      last_tx_end = -1;
    }

  let delivered t = t.delivered

  let lost t = t.lost

  let collisions t = t.collisions
end

type t = radio

let radio_ua = function Off -> 0 | Listening -> 9_000 | Transmitting -> 15_000

let set_state t s =
  t.r_state <- s;
  Sim.meter_set_ua t.sim t.meter (radio_ua s)

let create (ether : Ether.t) irq ~irq_line ~addr =
  let sim = ether.e_sim in
  let t =
    {
      sim;
      ether;
      irq;
      irq_line;
      r_addr = addr;
      r_state = Off;
      resume_state = Off;
      tx_client = ignore;
      rx_client = (fun ~src:_ _ -> ());
      pending_rx = [];
      pending_tx_done = false;
      meter = Sim.meter sim ~name:(Printf.sprintf "radio-%04x" addr);
    }
  in
  Irq.register irq ~line:irq_line ~name:"radio" (fun () ->
      if t.pending_tx_done then begin
        t.pending_tx_done <- false;
        t.tx_client ()
      end;
      let rx = List.rev t.pending_rx in
      t.pending_rx <- [];
      List.iter (fun (src, payload) -> t.rx_client ~src payload) rx);
  Irq.enable irq ~line:irq_line;
  ether.radios <- t :: ether.radios;
  t

let addr t = t.r_addr

let state t = t.r_state

let start_listening t =
  if t.r_state <> Transmitting then set_state t Listening
  else t.resume_state <- Listening

let stop t =
  if t.r_state = Transmitting then t.resume_state <- Off else set_state t Off

let set_transmit_client t fn = t.tx_client <- fn

let set_receive_client t fn = t.rx_client <- fn

let air_cycles t len =
  (* preamble + header ~ 12 bytes of overhead per frame *)
  (len + 12) * Sim.clock_hz t.sim / bytes_per_second

(* Scatter-gather transmit: the frame segments (header, payload window,
   trailer) are serialized straight into the air copy — the single DMA
   gather the hardware performs, never aliased by software — and sent
   as one frame with one completion interrupt. *)
let transmit_segs t ~dest segs =
  let ether = t.ether in
  match Completion.gather segs with
  | None -> Error (Completion.Invalid "bad segment")
  | Some payload when Bytes.length payload > max_payload ->
      Error (Completion.Size "payload too long")
  | Some _ when t.r_state = Transmitting || t.pending_tx_done ->
      (* In the air, or sent with its completion awaiting the top half. *)
      Error (Completion.Busy "already transmitting")
  | Some payload ->
      (* Transmitting from Off powers the radio up for the frame and
         drops back to Off afterwards. *)
      t.resume_state <- t.r_state;
      let air = air_cycles t (Bytes.length payload) in
      let now = Sim.now t.sim in
      (* Collision: overlap with another in-flight transmission. *)
      let collided = now < ether.last_tx_end in
      if collided then ether.collisions <- ether.collisions + 1;
      ether.last_tx_end <- max ether.last_tx_end (now + air);
      set_state t Transmitting;
      ignore
        (Sim.at t.sim ~delay:air (fun () ->
             set_state t t.resume_state;
             t.pending_tx_done <- true;
             Irq.set_pending t.irq ~line:t.irq_line;
             if not collided then
               List.iter
                 (fun (r : radio) ->
                   if r != t && r.r_state = Listening && (dest = broadcast || dest = r.r_addr)
                   then
                     if Tock_crypto.Prng.float ether.e_rng < ether.loss_prob then
                       ether.lost <- ether.lost + 1
                     else begin
                       ether.delivered <- ether.delivered + 1;
                       r.pending_rx <- (t.r_addr, payload) :: r.pending_rx;
                       Irq.set_pending r.irq ~line:r.irq_line
                     end)
                 ether.radios
             else ether.lost <- ether.lost + 1));
      Ok ()
