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

(* One transaction: write the latched [data], if any, then read
   [read_len] bytes, if any. The device callbacks run at completion,
   once the wire time (the address byte, then the data) is over. *)
let transaction t ~addr data ~read_len =
  let written = Option.fold ~none:0 ~some:Bytes.length data in
  Completion.start t.op ~delay:((1 + written + read_len) * t.cycles_per_byte)
    (fun () ->
      match Hashtbl.find_opt t.devices addr with
      | Some d ->
          Option.iter d.on_write data;
          (Done, if read_len > 0 then d.on_read read_len else Bytes.empty)
      | None -> (Nack, Bytes.empty))

let latched t ~addr segs ~read_len =
  match Completion.gather segs with
  | None -> Error (Completion.Invalid "bad segment")
  | Some data -> transaction t ~addr (Some data) ~read_len

let write t ~addr segs =
  if Completion.busy t.op then Error (Completion.Busy "i2c busy")
  else latched t ~addr segs ~read_len:0

let read t ~addr ~len =
  if Completion.busy t.op then Error (Completion.Busy "i2c busy")
  else if len <= 0 then Error (Completion.Invalid "bad length")
  else transaction t ~addr None ~read_len:len

let write_read t ~addr segs ~read_len =
  if Completion.busy t.op then Error (Completion.Busy "i2c busy")
  else if read_len <= 0 then Error (Completion.Invalid "bad length")
  else latched t ~addr segs ~read_len
