type result_code = Done | Nack

type device = { on_write : bytes -> unit; on_read : int -> bytes }

type t = {
  sim : Sim.t;
  irq : Irq.t;
  irq_line : int;
  cycles_per_byte : int;
  devices : (int, device) Hashtbl.t;
  mutable client : result_code -> bytes -> unit;
  mutable busy : bool;
  mutable completed : (result_code * bytes) option;
}

let create sim irq ~irq_line ~cycles_per_byte =
  let t =
    {
      sim;
      irq;
      irq_line;
      cycles_per_byte;
      devices = Hashtbl.create 8;
      client = (fun _ _ -> ());
      busy = false;
      completed = None;
    }
  in
  Irq.register irq ~line:irq_line ~name:"i2c" (fun () ->
      match t.completed with
      | Some (code, rx) ->
          t.completed <- None;
          t.client code rx
      | None -> ());
  Irq.enable irq ~line:irq_line;
  t

let add_device t ~addr ~on_write ~on_read =
  Hashtbl.replace t.devices addr { on_write; on_read }

let set_client t fn = t.client <- fn

let start t ~wire_bytes result =
  t.busy <- true;
  ignore
    (Sim.at t.sim
       ~delay:((wire_bytes + 1) * t.cycles_per_byte)
       (fun () ->
         t.busy <- false;
         t.completed <- Some (result ());
         Irq.set_pending t.irq ~line:t.irq_line));
  Ok ()

let write t ~addr data =
  if t.busy then Error "i2c busy"
  else
    start t ~wire_bytes:(Bytes.length data) (fun () ->
        match Hashtbl.find_opt t.devices addr with
        | Some d ->
            d.on_write data;
            (Done, Bytes.empty)
        | None -> (Nack, Bytes.empty))

let read t ~addr ~len =
  if t.busy then Error "i2c busy"
  else if len <= 0 then Error "bad length"
  else
    start t ~wire_bytes:len (fun () ->
        match Hashtbl.find_opt t.devices addr with
        | Some d -> (Done, d.on_read len)
        | None -> (Nack, Bytes.empty))

let write_read t ~addr data ~read_len =
  if t.busy then Error "i2c busy"
  else if read_len <= 0 then Error "bad length"
  else
    start t ~wire_bytes:(Bytes.length data + read_len) (fun () ->
        match Hashtbl.find_opt t.devices addr with
        | Some d ->
            d.on_write data;
            (Done, d.on_read read_len)
        | None -> (Nack, Bytes.empty))
