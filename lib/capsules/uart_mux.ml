type vdev = {
  mux : t;
  mutable tx_client : Tock.Subslice.t -> unit;
  mutable rx_client : Tock.Subslice.t -> (unit, Tock.Error.t) result -> unit;
  mutable tx_queued : bool;
}

and t = {
  hw : Tock.Hil.uart;
  mutable queue : (vdev * Tock.Subslice.t) list; (* FIFO, head = oldest *)
  mutable inflight : vdev option;
  mutable rx_holder : vdev option;
}

let rec pump t =
  match (t.inflight, t.queue) with
  | None, (dev, buf) :: rest -> (
      match t.hw.Tock.Hil.uart_transmit buf with
      | Ok () ->
          t.queue <- rest;
          t.inflight <- Some dev
      | Error (Tock.Error.BUSY, _) ->
          (* Hardware still draining; retry on next completion. The buffer
             stays queued. *)
          ()
      | Error _ ->
          (* Give the buffer back with a failure and move on. *)
          t.queue <- rest;
          dev.tx_queued <- false;
          dev.tx_client buf;
          pump t)
  | _ -> ()

let create hw =
  let t = { hw; queue = []; inflight = None; rx_holder = None } in
  hw.Tock.Hil.uart_set_transmit_client (fun buf ->
      match t.inflight with
      | Some dev ->
          t.inflight <- None;
          dev.tx_queued <- false;
          dev.tx_client buf;
          pump t
      | None -> ());
  hw.Tock.Hil.uart_set_receive_client (fun buf result ->
      match t.rx_holder with
      | Some dev ->
          t.rx_holder <- None;
          dev.rx_client buf result
      | None -> ());
  t

let new_device t =
  {
    mux = t;
    tx_client = (fun (_ : Tock.Subslice.t) -> ());
    rx_client = (fun (_ : Tock.Subslice.t) _ -> ());
    tx_queued = false;
  }

let transmit dev buf =
  if dev.tx_queued then Error (Tock.Error.BUSY, buf)
  else (
    let t = dev.mux in
    dev.tx_queued <- true;
    t.queue <- t.queue @ [ (dev, buf) ];
    pump t;
    Ok ())

let set_transmit_client dev fn = dev.tx_client <- fn

let receive dev buf =
  let t = dev.mux in
  match t.rx_holder with
  | Some _ -> Error (Tock.Error.BUSY, buf)
  | None -> (
      match t.hw.Tock.Hil.uart_receive buf with
      | Ok () ->
          t.rx_holder <- Some dev;
          Ok ()
      | Error e -> Error e)

let set_receive_client dev fn = dev.rx_client <- fn

(* The aborted receive's CANCEL call comes back through [rx_holder],
   which routes it to [dev] and frees the receive side. *)
let abort_receive dev =
  match dev.mux.rx_holder with
  | Some d when d == dev -> dev.mux.hw.Tock.Hil.uart_abort_receive ()
  | _ -> ()
