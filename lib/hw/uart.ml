type parity = No_parity | Even | Odd

let fifo_capacity = 64

(* A receive, until its client call: waiting for the FIFO to hold the
   wanted length, for the last byte's wire time, for the top half (with
   the bytes, or [None] once aborted). *)
type rx = Rx_idle | Rx_waiting of int | Rx_arriving of Event_queue.handle | Rx_done of bytes option

type t = {
  sim : Sim.t;
  irq : Irq.t;
  irq_line : int;
  mutable baud : int;
  mutable bits_per_byte : int; (* start + data + parity + stop *)
  mutable tx_sink : bytes -> unit;
  mutable tx_client : len:int -> unit;
  mutable rx_client : bytes option -> unit;
  mutable tx_inflight : bool; (* until the top half takes [completed_tx] *)
  mutable rx : rx;
  fifo : Buffer.t;
  mutable overruns : int;
  mutable completed_tx : (int * bytes) option; (* len waiting for top half *)
  meter : Sim.meter;
}

let create sim irq ~irq_line ~name =
  let t =
    {
      sim;
      irq;
      irq_line;
      baud = 115200;
      bits_per_byte = 10;
      tx_sink = ignore;
      tx_client = (fun ~len:_ -> ());
      rx_client = ignore;
      tx_inflight = false;
      rx = Rx_idle;
      fifo = Buffer.create fifo_capacity;
      overruns = 0;
      completed_tx = None;
      meter = Sim.meter sim ~name;
    }
  in
  Irq.register irq ~line:irq_line ~name (fun () ->
      (match t.completed_tx with
      | Some (len, data) ->
          t.completed_tx <- None;
          t.tx_inflight <- false;
          t.tx_sink data;
          t.tx_client ~len
      | None -> ());
      match t.rx with
      | Rx_done data ->
          t.rx <- Rx_idle;
          t.rx_client data
      | Rx_idle | Rx_waiting _ | Rx_arriving _ -> ());
  Irq.enable irq ~line:irq_line;
  t

let configure t ~baud ~parity ~stop_bits =
  if baud < 300 || baud > 4_000_000 then Error "unsupported baud rate"
  else if stop_bits < 1 || stop_bits > 2 then Error "bad stop bits"
  else begin
    t.baud <- baud;
    t.bits_per_byte <-
      (1 + 8 + (match parity with No_parity -> 0 | Even | Odd -> 1) + stop_bits);
    Ok ()
  end

let cycles_per_byte t =
  Sim.clock_hz t.sim * t.bits_per_byte / t.baud

let set_tx_sink t fn = t.tx_sink <- fn

let set_transmit_client t fn = t.tx_client <- fn

let set_receive_client t fn = t.rx_client <- fn

let overruns t = t.overruns

let tx_busy t = t.tx_inflight

(* Scatter-gather transmit: the segments are serialized back to back
   into the shift-register latch (the one DMA copy the hardware itself
   performs) and clocked out as a single operation — one schedule, one
   interrupt, one completion, however many segments. *)
let transmit_segs t segs =
  match Completion.gather segs with
  | None -> Error (Completion.Invalid "bad length")
  | Some _ when t.tx_inflight -> Error (Completion.Busy "transmit busy")
  | Some latch ->
      let total = Bytes.length latch in
      t.tx_inflight <- true;
      Sim.meter_set_ua t.sim t.meter 1500;
      ignore
        (Sim.at t.sim ~delay:(total * cycles_per_byte t) (fun () ->
             Sim.meter_set_ua t.sim t.meter 0;
             t.completed_tx <- Some (total, latch);
             Irq.set_pending t.irq ~line:t.irq_line));
      Ok ()

let transmit t buf ~len = transmit_segs t [ (buf, 0, len) ]

(* Try to satisfy a waiting receive from the FIFO. *)
let try_complete_rx t =
  match t.rx with
  | Rx_waiting wanted when Buffer.length t.fifo >= wanted ->
      let all = Buffer.to_bytes t.fifo in
      let data = Bytes.sub all 0 wanted in
      let rest = Bytes.sub all wanted (Bytes.length all - wanted) in
      Buffer.clear t.fifo;
      Buffer.add_bytes t.fifo rest;
      (* Model the wire time of the last byte arriving. *)
      t.rx <-
        Rx_arriving
          (Sim.at t.sim ~delay:(cycles_per_byte t) (fun () ->
               t.rx <- Rx_done (Some data);
               Irq.set_pending t.irq ~line:t.irq_line))
  | _ -> ()

let rx_inject t data =
  Bytes.iter
    (fun c ->
      if Buffer.length t.fifo < fifo_capacity then Buffer.add_char t.fifo c
      else t.overruns <- t.overruns + 1)
    data;
  try_complete_rx t

let receive t ~len =
  match t.rx with
  | _ when len <= 0 -> Error (Completion.Invalid "bad length")
  | Rx_waiting _ | Rx_arriving _ | Rx_done _ -> Error (Completion.Busy "receive busy")
  | Rx_idle ->
      t.rx <- Rx_waiting len;
      try_complete_rx t;
      Ok ()

let abort_receive t =
  match t.rx with
  | Rx_idle | Rx_done None -> ()
  | Rx_waiting _ | Rx_arriving _ | Rx_done (Some _) ->
      (match t.rx with Rx_arriving wire -> Sim.cancel t.sim wire | _ -> ());
      t.rx <- Rx_done None;
      Irq.set_pending t.irq ~line:t.irq_line
