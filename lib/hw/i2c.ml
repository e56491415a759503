type result_code = Done | Nack

type device = { on_write : bytes -> unit; on_read : int -> bytes }

type t = {
  op : (result_code * bytes) Completion.t;
  cycles_per_byte : int;
  devices : (int, device) Hashtbl.t;
}

let create sim irq ~irq_line ~cycles_per_byte =
  {
    op = Completion.create sim irq ~line:irq_line ~name:"i2c";
    cycles_per_byte;
    devices = Hashtbl.create 8;
  }

let add_device t ~addr ~on_write ~on_read =
  Hashtbl.replace t.devices addr { on_write; on_read }

let set_client t fn = Completion.set_client t.op (fun (code, rx) -> fn code rx)

(* Wire time: the address byte, then the data. The device callbacks
   run at completion, once the wire time is over. *)
let wire t bytes = (bytes + 1) * t.cycles_per_byte

let write t ~addr data =
  if Completion.busy t.op then Error "i2c busy"
  else
    Completion.start t.op ~delay:(wire t (Bytes.length data)) (fun () ->
        match Hashtbl.find_opt t.devices addr with
        | Some d ->
            d.on_write data;
            (Done, Bytes.empty)
        | None -> (Nack, Bytes.empty))

let read t ~addr ~len =
  if Completion.busy t.op then Error "i2c busy"
  else if len <= 0 then Error "bad length"
  else
    Completion.start t.op ~delay:(wire t len) (fun () ->
        match Hashtbl.find_opt t.devices addr with
        | Some d -> (Done, d.on_read len)
        | None -> (Nack, Bytes.empty))

let write_read t ~addr data ~read_len =
  if Completion.busy t.op then Error "i2c busy"
  else if read_len <= 0 then Error "bad length"
  else
    Completion.start t.op ~delay:(wire t (Bytes.length data + read_len))
      (fun () ->
        match Hashtbl.find_opt t.devices addr with
        | Some d ->
            d.on_write data;
            (Done, d.on_read read_len)
        | None -> (Nack, Bytes.empty))
