open Tock

let max_frame = 127

type t = {
  kernel : Kernel.t;
  radio : Hil.radio;
  tx_buf : Subslice.t array Cells.Take_cell.t; (* one window *)
  mutable tx_owner : Process.id option;
  mutable listeners : Process.id list;
}

let create kernel radio =
  let t =
    {
      kernel;
      radio;
      tx_buf = Cells.Take_cell.make [| Subslice.create max_frame |];
      tx_owner = None;
      listeners = [];
    }
  in
  radio.Hil.radio_set_transmit_iov_client (fun iov ->
      Subslice.reset iov.(0);
      Cells.Take_cell.put t.tx_buf iov;
      match t.tx_owner with
      | Some pid ->
          t.tx_owner <- None;
          ignore
            (Kernel.schedule_upcall t.kernel pid ~driver:Driver_num.radio
               ~subscribe_num:0 ~args:(0, 0, 0))
      | None -> ());
  radio.Hil.radio_set_receive_client (fun ~src payload ->
      List.iter
        (fun pid ->
          let copied =
            Kernel.with_allow_rw t.kernel pid ~driver:Driver_num.radio
              ~allow_num:0 (fun buf ->
                let m = min (Bytes.length payload) (Subslice.length buf) in
                if m > 0 then
                  Subslice.blit_from_bytes ~src:payload ~src_off:0 buf
                    ~dst_off:0 ~len:m;
                m)
          in
          let n = match copied with Ok n -> n | Error _ -> 0 in
          ignore
            (Kernel.schedule_upcall t.kernel pid ~driver:Driver_num.radio
               ~subscribe_num:1 ~args:(src, n, 0)))
        t.listeners);
  t

let command t proc ~command_num ~arg1 ~arg2 =
  let pid = Process.id proc in
  match command_num with
  | 0 -> Syscall.Success
  | 1 -> (
      (* send arg2 bytes of the allowed payload to dest arg1 *)
      if t.tx_owner <> None then Syscall.Failure Error.BUSY
      else
        match Cells.Take_cell.take t.tx_buf with
        | None -> Syscall.Failure Error.BUSY
        | Some iov -> (
            let sub = iov.(0) in
            Subslice.reset sub;
            let copied =
              Kernel.with_allow_ro t.kernel pid ~driver:Driver_num.radio
                ~allow_num:0 (fun payload ->
                  let m =
                    min (min arg2 (Subslice.length payload)) max_frame
                  in
                  Subslice.slice_to sub m;
                  Subslice.copy_within payload sub;
                  m)
            in
            match copied with
            | Ok m when m > 0 -> (
                match t.radio.Hil.radio_transmit_iov ~dest:arg1 iov with
                | Ok () ->
                    t.tx_owner <- Some pid;
                    Syscall.Success
                | Error (e, iov) ->
                    Subslice.reset iov.(0);
                    Cells.Take_cell.put t.tx_buf iov;
                    Syscall.Failure e)
            | _ ->
                Subslice.reset sub;
                Cells.Take_cell.put t.tx_buf iov;
                Syscall.Failure Error.RESERVE))
  | 2 ->
      t.radio.Hil.radio_start_listening ();
      if not (List.mem pid t.listeners) then t.listeners <- pid :: t.listeners;
      Syscall.Success
  | 3 ->
      t.listeners <- List.filter (fun p -> p <> pid) t.listeners;
      if t.listeners = [] then t.radio.Hil.radio_stop ();
      Syscall.Success
  | 4 -> Syscall.Success_u32 t.radio.Hil.radio_addr
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver t =
  Driver.make ~driver_num:Driver_num.radio ~name:"radio"
    (fun proc ~command_num ~arg1 ~arg2 -> command t proc ~command_num ~arg1 ~arg2)
