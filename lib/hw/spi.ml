type polarity = Active_low | Active_high

type cs_capability = Only_active_low | Only_active_high | Configurable

type device = { cs : int; requires : polarity; transfer : bytes -> bytes }

type t = {
  op : bytes Completion.t;
  capability : cs_capability;
  cycles_per_byte : int;
  mutable devices : device list;
  cs_config : (int, polarity) Hashtbl.t;
  mutable mispolarized : int;
}

let create sim irq ~irq_line ~cs_capability ~cycles_per_byte =
  {
    op = Completion.create sim irq ~line:irq_line ~name:"spi";
    capability = cs_capability;
    cycles_per_byte;
    devices = [];
    cs_config = Hashtbl.create 8;
    mispolarized = 0;
  }

let cs_capability t = t.capability

let add_device t ~cs ~requires ~transfer =
  let d = { cs; requires; transfer } in
  t.devices <- d :: t.devices;
  d

let polarity_supported capability polarity =
  match (capability, polarity) with
  | Configurable, _ -> true
  | Only_active_low, Active_low -> true
  | Only_active_high, Active_high -> true
  | Only_active_low, Active_high | Only_active_high, Active_low -> false

let configure_cs t ~cs polarity =
  if polarity_supported t.capability polarity then begin
    Hashtbl.replace t.cs_config cs polarity;
    Ok ()
  end
  else Error "controller does not support this chip-select polarity"

let cs_polarity t ~cs =
  match Hashtbl.find_opt t.cs_config cs with
  | Some p -> p
  | None -> (
      match t.capability with
      | Only_active_high -> Active_high
      | Only_active_low | Configurable -> Active_low)

let set_client t fn = Completion.set_client t.op (fun rx -> fn ~rx)

let mispolarized_transfers t = t.mispolarized

let read_write t ~cs segs =
  match Completion.gather segs with
  | None -> Error (Completion.Invalid "bad length")
  | Some _ when Completion.busy t.op -> Error (Completion.Busy "spi busy")
  | Some tx ->
      let len = Bytes.length tx in
      (* With no device selected, or past a short answer, the bus floats high. *)
      let rx = Bytes.make len '\xff' in
      (match List.find_opt (fun d -> d.cs = cs) t.devices with
      | Some d when d.requires = cs_polarity t ~cs ->
          let answer = d.transfer tx in
          Bytes.blit answer 0 rx 0 (min len (Bytes.length answer))
      | Some _ -> t.mispolarized <- t.mispolarized + 1
      | None -> ());
      Completion.start t.op ~delay:(len * t.cycles_per_byte) (fun () -> rx)
