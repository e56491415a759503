open Tock

type grant_state = { mutable enabled_mask : int }

type t = {
  kernel : Kernel.t;
  pins : Hil.gpio_pin array;
  active_high : bool;
  grant : grant_state Grant.t;
}

let create kernel ~buttons ~active_high ~grant_cap =
  let t =
    {
      kernel;
      pins = buttons;
      active_high;
      grant =
        Grant.create ~cap:grant_cap ~name:"button" ~size_bytes:8 ~init:(fun () ->
            { enabled_mask = 0 });
    }
  in
  Kernel.register_grant kernel t.grant;
  Array.iteri
    (fun i pin ->
      pin.Hil.pin_make_input ();
      pin.Hil.pin_set_client (fun level ->
          let pressed = if active_high then level else not level in
          (* Fan out to every process that enabled this button. *)
          List.iter
            (fun pid ->
              match Kernel.find_process t.kernel pid with
              | Some proc ->
                  let enabled =
                    match
                      Grant.enter t.grant proc (fun g ->
                          g.enabled_mask land (1 lsl i) <> 0)
                    with
                    | Ok b -> b
                    | Error _ -> false
                  in
                  if enabled then
                    ignore
                      (Kernel.schedule_upcall t.kernel pid
                         ~driver:Driver_num.button ~subscribe_num:0
                         ~args:(i, (if pressed then 1 else 0), 0))
              | None -> ())
            (Kernel.process_ids t.kernel)))
    buttons;
  t

let command t proc ~command_num ~arg1 ~arg2:_ =
  let n = Array.length t.pins in
  let check i k = if i < 0 || i >= n then Syscall.Failure Error.INVAL else k () in
  match command_num with
  | 0 -> Syscall.Success_u32 n
  | 1 ->
      check arg1 (fun () ->
          t.pins.(arg1).Hil.pin_enable_interrupt `Either;
          match
            Grant.enter t.grant proc (fun g ->
                g.enabled_mask <- g.enabled_mask lor (1 lsl arg1))
          with
          | Ok () -> Syscall.Success
          | Error e -> Syscall.Failure e)
  | 2 ->
      check arg1 (fun () ->
          match
            Grant.enter t.grant proc (fun g ->
                g.enabled_mask <- g.enabled_mask land lnot (1 lsl arg1))
          with
          | Ok () -> Syscall.Success
          | Error e -> Syscall.Failure e)
  | 3 ->
      check arg1 (fun () ->
          let level = t.pins.(arg1).Hil.pin_read () in
          let pressed = if t.active_high then level else not level in
          Syscall.Success_u32 (if pressed then 1 else 0))
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver t =
  Driver.make ~driver_num:Driver_num.button ~name:"button"
    (fun proc ~command_num ~arg1 ~arg2 -> command t proc ~command_num ~arg1 ~arg2)
