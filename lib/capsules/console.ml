open Tock

let allow_tx = 1

let allow_rx = 1

let sub_tx_done = 1

let sub_rx_done = 2

type grant_state = { mutable pending_write : int (* 0 = none *) }

type t = {
  kernel : Kernel.t;
  vdev : Uart_mux.vdev;
  grant : grant_state Grant.t;
  mutable tx_owner : Process.id option;
  mutable wait_queue : Process.id list;
  mutable rx_owner : (Process.id * int) option;
  c_writes : Tock_obs.Metrics.counter;
  c_bytes : Tock_obs.Metrics.counter;
}

(* Enter this capsule's grant for a process known only by id (the id is
   what completion callbacks carry, as in Tock). *)
let enter_grant t pid f =
  match Kernel.find_process t.kernel pid with
  | Some p -> Grant.enter t.grant p f
  | None -> Result.Error Error.NODEVICE

let finish_failed_write t pid =
  ignore (enter_grant t pid (fun g -> g.pending_write <- 0));
  ignore
    (Kernel.schedule_upcall t.kernel pid ~driver:Driver_num.console
       ~subscribe_num:sub_tx_done ~args:(0, 0, 0))

(* Hand the process's allowed bytes to the UART mux in place: the
   transmit window is a clone of the allow window over process memory,
   so the write crosses the syscall boundary without a staging copy.
   [t.tx_owner] doubles as the busy token — one write in flight. *)
let start_write t pid len =
  match
    Kernel.allow_window t.kernel pid ~kind:`Ro ~driver:Driver_num.console
      ~allow_num:allow_tx
  with
  | None -> finish_failed_write t pid
  | Some w -> (
      let n = min len (Subslice.length w) in
      if n <= 0 then finish_failed_write t pid
      else begin
        Subslice.slice_to w n;
        t.tx_owner <- Some pid;
        match Uart_mux.transmit t.vdev w with
        | Ok () -> ()
        | Error (_e, _w) ->
            t.tx_owner <- None;
            finish_failed_write t pid
      end)

let create kernel vdev ~grant_cap =
  let grant =
    Grant.create ~cap:grant_cap ~name:"console" ~size_bytes:16 ~init:(fun () ->
        { pending_write = 0 })
  in
  let reg = Kernel.metrics kernel in
  let t =
    {
      kernel;
      vdev;
      grant;
      tx_owner = None;
      wait_queue = [];
      rx_owner = None;
      c_writes = Tock_obs.Metrics.counter reg "console.tx_writes";
      c_bytes = Tock_obs.Metrics.counter reg "console.tx_bytes";
    }
  in
  Kernel.register_grant kernel grant;
  Uart_mux.set_transmit_client vdev (fun sub ->
      let len = Subslice.length sub in
      (match t.tx_owner with
      | Some pid ->
          t.tx_owner <- None;
          Tock_obs.Metrics.incr t.c_writes;
          Tock_obs.Metrics.add t.c_bytes len;
          ignore (enter_grant t pid (fun g -> g.pending_write <- 0));
          ignore
            (Kernel.schedule_upcall t.kernel pid ~driver:Driver_num.console
               ~subscribe_num:sub_tx_done ~args:(len, 0, 0))
      | None -> ());
      (* Serve the next queued writer. *)
      let rec next () =
        match t.wait_queue with
        | [] -> ()
        | pid :: rest -> (
            t.wait_queue <- rest;
            match enter_grant t pid (fun g -> g.pending_write) with
            | Ok n when n > 0 -> start_write t pid n
            | _ -> next ())
      in
      next ());
  Uart_mux.set_receive_client vdev (fun sub result ->
      (* The bytes already landed in the process's allow window — the
         receive buffer IS that window, so delivery is just the upcall.
         A cancelled receive (command 3) delivered no bytes and gets no
         upcall. *)
      match t.rx_owner with
      | Some (pid, wanted) -> (
          t.rx_owner <- None;
          match result with
          | Ok () ->
              let delivered = min wanted (Subslice.length sub) in
              ignore
                (Kernel.schedule_upcall t.kernel pid ~driver:Driver_num.console
                   ~subscribe_num:sub_rx_done ~args:(delivered, 0, 0))
          | Error _ -> ())
      | None -> ());
  t

let command t proc ~command_num ~arg1 ~arg2:_ =
  let pid = Process.id proc in
  match command_num with
  | 0 -> Syscall.Success
  | 1 ->
      (* write arg1 bytes from the allowed tx buffer *)
      let len = min arg1 (Kernel.allow_size t.kernel pid ~kind:`Ro
                            ~driver:Driver_num.console ~allow_num:allow_tx)
      in
      if len <= 0 then Syscall.Failure Error.RESERVE
      else (
        match enter_grant t pid (fun g ->
                  if g.pending_write > 0 then false
                  else begin
                    g.pending_write <- len;
                    true
                  end)
        with
        | Ok true ->
            if t.tx_owner <> None then t.wait_queue <- t.wait_queue @ [ pid ]
            else start_write t pid len;
            Syscall.Success
        | Ok false -> Syscall.Failure Error.BUSY
        | Error e -> Syscall.Failure e)
  | 2 -> (
      (* read arg1 bytes straight into the allowed rx buffer *)
      if t.rx_owner <> None then Syscall.Failure Error.BUSY
      else
        match
          Kernel.allow_window t.kernel pid ~kind:`Rw ~driver:Driver_num.console
            ~allow_num:allow_rx
        with
        | None -> Syscall.Failure Error.RESERVE
        | Some w -> (
            let wanted = min arg1 (Subslice.length w) in
            if wanted <= 0 then Syscall.Failure Error.RESERVE
            else begin
              Subslice.slice_to w wanted;
              match Uart_mux.receive t.vdev w with
              | Ok () ->
                  t.rx_owner <- Some (pid, wanted);
                  Syscall.Success
              | Error (e, _w) -> Syscall.Failure e
            end))
  | 3 ->
      (* The read stays the caller's until its CANCEL call comes back. *)
      (match t.rx_owner with
      | Some (owner, _) when owner = pid -> Uart_mux.abort_receive t.vdev
      | _ -> ());
      Syscall.Success
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver t =
  Driver.make ~driver_num:Driver_num.console ~name:"console"
    (fun proc ~command_num ~arg1 ~arg2 -> command t proc ~command_num ~arg1 ~arg2)

let writes_completed t = Tock_obs.Metrics.counter_value t.c_writes
