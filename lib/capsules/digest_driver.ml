open Tock

let chunk_size = 64

type op = {
  op_pid : Process.id;
  op_driver : int; (* hmac or sha driver number *)
  mutable offset : int;
  data_len : int;
}

type t = {
  kernel : Kernel.t;
  engine : Hil.digest;
  mutable chunk_in_flight : bool;
  mutable current : op option;
}

let allow_key = 0

let allow_data = 1

let allow_digest_out = 0

let fail_current t e =
  match t.current with
  | Some op ->
      t.current <- None;
      ignore
        (Kernel.schedule_upcall t.kernel op.op_pid ~driver:op.op_driver
           ~subscribe_num:0 ~args:(-(Error.to_int e), 0, 0))
  | None -> ()

(* Feed the next DMA-sized chunk of the process's data buffer, or run the
   finalization when everything has been absorbed. The chunk handed to the
   engine is a window over the allow buffer itself — the engine reads
   process memory in place, no staging copy. *)
let feed t =
  match t.current with
  | None -> ()
  | Some op ->
      if op.offset >= op.data_len then (
        match t.engine.Hil.digest_run () with
        | Ok () -> ()
        | Error e -> fail_current t e)
      else if t.chunk_in_flight then ()
      else (
        match
          Kernel.allow_window t.kernel op.op_pid ~kind:`Ro
            ~driver:op.op_driver ~allow_num:allow_data
        with
        | None -> fail_current t Error.RESERVE
        | Some data ->
            let n = min chunk_size (op.data_len - op.offset) in
            let m = min n (Subslice.length data - op.offset) in
            if m <= 0 then fail_current t Error.RESERVE
            else begin
              Subslice.slice ~pos:op.offset ~len:m data;
              op.offset <- op.offset + m;
              t.chunk_in_flight <- true;
              match t.engine.Hil.digest_add_data data with
              | Ok () -> ()
              | Error (e, _sub) ->
                  t.chunk_in_flight <- false;
                  fail_current t e
            end)

let create kernel engine =
  let t =
    { kernel; engine; chunk_in_flight = false; current = None }
  in
  engine.Hil.digest_set_data_client (fun _sub ->
      (* the returned window was a clone over the allow buffer; nothing to
         recycle *)
      t.chunk_in_flight <- false;
      feed t);
  engine.Hil.digest_set_digest_client (fun digest ->
      match t.current with
      | Some op ->
          t.current <- None;
          let written =
            Kernel.with_allow_rw t.kernel op.op_pid ~driver:op.op_driver
              ~allow_num:allow_digest_out (fun out ->
                let m = min (Bytes.length digest) (Subslice.length out) in
                Subslice.blit_from_bytes ~src:digest ~src_off:0 out ~dst_off:0
                  ~len:m;
                m)
          in
          let n = match written with Ok n -> n | Error _ -> 0 in
          ignore
            (Kernel.schedule_upcall t.kernel op.op_pid ~driver:op.op_driver
               ~subscribe_num:0 ~args:(n, 0, 0))
      | None -> ());
  t

let command t ~driver_num proc ~command_num ~arg1:_ ~arg2:_ =
  let pid = Process.id proc in
  match command_num with
  | 0 -> Syscall.Success
  | 1 -> (
      if t.current <> None then Syscall.Failure Error.BUSY
      else
        let data_len =
          Kernel.allow_size t.kernel pid ~kind:`Ro ~driver:driver_num
            ~allow_num:allow_data
        in
        if data_len = 0 then Syscall.Failure Error.RESERVE
        else
          let mode =
            if driver_num = Driver_num.sha then Ok Hil.D_sha256
            else
              match
                Kernel.with_allow_ro t.kernel pid ~driver:driver_num
                  ~allow_num:allow_key (fun key -> Subslice.to_bytes key)
              with
              | Ok key when Bytes.length key > 0 -> Ok (Hil.D_hmac key)
              | Ok _ -> Error Error.RESERVE
              | Error e -> Error e
          in
          match mode with
          | Error e -> Syscall.Failure e
          | Ok mode -> (
              match t.engine.Hil.digest_set_mode mode with
              | Error e -> Syscall.Failure e
              | Ok () ->
                  t.current <-
                    Some { op_pid = pid; op_driver = driver_num; offset = 0;
                           data_len };
                  feed t;
                  Syscall.Success))
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver_hmac t =
  Driver.make ~driver_num:Driver_num.hmac ~name:"hmac"
    (fun proc ~command_num ~arg1 ~arg2 ->
      command t ~driver_num:Driver_num.hmac proc ~command_num ~arg1 ~arg2)

let driver_sha t =
  Driver.make ~driver_num:Driver_num.sha ~name:"sha"
    (fun proc ~command_num ~arg1 ~arg2 ->
      command t ~driver_num:Driver_num.sha proc ~command_num ~arg1 ~arg2)
