(* Only the syscall-ABI surface of the core kernel — never internals. *)
module Error = Tock.Error
module Syscall = Tock.Syscall
module Driver_num = Tock.Driver_num

type result3 = (int * int * int, Error.t) result

let call_classic app ~driver ~sub ~cmd ~arg1 ~arg2 : result3 =
  let result = ref None in
  match Libtock.subscribe app ~driver ~sub (fun a b c -> result := Some (a, b, c)) with
  | Error e -> Error e
  | Ok () -> (
      match Libtock.command app ~driver ~cmd ~arg1 ~arg2 with
      | Syscall.Failure e
      | Syscall.Failure_u32 (e, _)
      | Syscall.Failure_u32_u32 (e, _, _) ->
          Libtock.unsubscribe app ~driver ~sub;
          Error e
      | _ ->
          while !result = None do
            Libtock.yield_wait app
          done;
          Libtock.unsubscribe app ~driver ~sub;
          (match !result with
          | Some r -> Ok r
          | None -> Error Error.FAIL))

type waitfor_handle = { h_app : Emu.app; h_driver : int; h_sub : int }

let waitfor_handle app ~driver ~sub =
  (* One-time dummy subscription so the capsule's completion is queued
     even though no callback will ever be invoked for it. *)
  ignore (Libtock.subscribe app ~driver ~sub (fun _ _ _ -> ()));
  { h_app = app; h_driver = driver; h_sub = sub }

let call_waitfor h ~cmd ~arg1 ~arg2 : result3 =
  match
    Libtock.command h.h_app ~driver:h.h_driver ~cmd ~arg1 ~arg2
  with
  | Syscall.Failure e
  | Syscall.Failure_u32 (e, _)
  | Syscall.Failure_u32_u32 (e, _, _) ->
      Error e
  | _ -> Ok (Libtock.yield_wait_for h.h_app ~driver:h.h_driver ~sub:h.h_sub)

let call_blocking app ~driver ~sub ~cmd ~arg1 ~arg2 : result3 =
  Libtock.command_blocking app ~driver ~cmd ~arg1 ~arg2 ~sub

let call_with_timeout app ~driver ~sub ~cmd ~arg1 ~arg2 ~timeout_ticks =
  let result = ref None and timed_out = ref false in
  (* two callbacks... *)
  ignore (Libtock.subscribe app ~driver ~sub (fun a b c -> result := Some (a, b, c)));
  ignore
    (Libtock.subscribe app ~driver:Driver_num.alarm ~sub:0 (fun _ _ _ ->
         timed_out := true));
  (* ...two commands... *)
  ignore (Libtock.command app ~driver:Driver_num.alarm ~cmd:5 ~arg1:timeout_ticks ~arg2:0);
  (match Libtock.command app ~driver ~cmd ~arg1 ~arg2 with
  | Syscall.Failure _ | Syscall.Failure_u32 _ | Syscall.Failure_u32_u32 _ ->
      result := None;
      timed_out := true
  | _ ->
      (* ...then wait for whichever fires first... *)
      while !result = None && not !timed_out do
        Libtock.yield_wait app
      done);
  (* ...and tear the loser down. *)
  if !result <> None then
    ignore (Libtock.command app ~driver:Driver_num.alarm ~cmd:6 ~arg1:0 ~arg2:0);
  Libtock.unsubscribe app ~driver ~sub;
  Libtock.unsubscribe app ~driver:Driver_num.alarm ~sub:0;
  !result

(* ---- typed services ---- *)

let expect_classic app ~driver ~sub ~cmd ~arg1 ~arg2 =
  match call_classic app ~driver ~sub ~cmd ~arg1 ~arg2 with
  | Ok r -> r
  | Error e ->
      raise (Emu.App_panic_exn (Printf.sprintf "driver %#x cmd %d failed: %s"
                                  driver cmd (Error.to_string e)))

let sleep_ticks app dt =
  ignore
    (expect_classic app ~driver:Driver_num.alarm ~sub:0 ~cmd:5 ~arg1:dt ~arg2:0)

(* Thaw prologue: re-enter the exact sleep a frozen app was suspended
   in. Command 4 arms at the *absolute* (reference, dt) recorded in the
   frozen image, so the alarm fires at the original deadline no matter
   what clock the prologue runs at; the syscall shape (subscribe →
   command → yield-wait loop) matches [sleep_ticks]'s call_classic, so
   the rebuilt continuation is suspended at the same point. *)
let resume_sleep app =
  match Emu.take_resume_alarm app with
  | Some (reference, dt) ->
      Emu.set_at_sleep app true;
      ignore
        (expect_classic app ~driver:Driver_num.alarm ~sub:0 ~cmd:4
           ~arg1:reference ~arg2:dt);
      Emu.set_at_sleep app false
  | None ->
      raise (Emu.App_panic_exn "resume_sleep: no frozen alarm recorded")

(* The only freeze point thaw accepts for a live app: cursor recorded,
   then suspended in the sleep itself. The at-sleep mark distinguishes
   this suspension from every other yield the body may hit (console
   busy-retry naps, I/O completion waits) — those are witnessable but
   not rebuildable, since the fast-forward can only re-enter the
   checkpoint sleep. *)
let checkpoint_sleep app ~cursor ~ticks =
  Emu.checkpoint app cursor;
  Emu.set_at_sleep app true;
  sleep_ticks app ticks;
  Emu.set_at_sleep app false

let alarm_frequency app =
  match Libtock.command app ~driver:Driver_num.alarm ~cmd:1 ~arg1:0 ~arg2:0 with
  | Syscall.Success_u32 hz -> hz
  | _ -> raise (Emu.App_panic_exn "alarm frequency query failed")

let console_write app s =
  let len = String.length s in
  if len = 0 then 0
  else begin
    let addr = Emu.get_buffer app ~tag:"console-tx" ~size:(max len 64) in
    Emu.write_string app ~addr s;
    match
      Libtock.allow_ro app ~driver:Driver_num.console ~num:1 ~addr ~len
    with
    | Error _ -> 0
    | Ok _ ->
        let rec attempt retries =
          match
            call_classic app ~driver:Driver_num.console ~sub:1 ~cmd:1
              ~arg1:len ~arg2:0
          with
          | Ok (n, _, _) -> n
          | Error Error.BUSY when retries > 0 ->
              sleep_ticks app 4;
              attempt (retries - 1)
          | Error _ -> 0
        in
        let n = attempt 16 in
        Libtock.unallow_ro app ~driver:Driver_num.console ~num:1;
        n
  end

let console_read app n =
  let addr = Emu.get_buffer app ~tag:"console-rx" ~size:(max n 64) in
  match Libtock.allow_rw app ~driver:Driver_num.console ~num:1 ~addr ~len:n with
  | Error _ -> Bytes.empty
  | Ok _ -> (
      match
        call_classic app ~driver:Driver_num.console ~sub:2 ~cmd:2 ~arg1:n
          ~arg2:0
      with
      | Ok (got, _, _) ->
          let data = Emu.read_bytes app ~addr ~len:(min got n) in
          Libtock.unallow_rw app ~driver:Driver_num.console ~num:1;
          data
      | Error _ ->
          Libtock.unallow_rw app ~driver:Driver_num.console ~num:1;
          Bytes.empty)

let sensor_read app driver =
  let v, _, _ = expect_classic app ~driver ~sub:0 ~cmd:1 ~arg1:0 ~arg2:0 in
  v

let temperature_read app = sensor_read app Driver_num.temperature

let pressure_read app = sensor_read app Driver_num.pressure

let light_read app = sensor_read app Driver_num.light

let rng_bytes app n =
  let addr = Emu.get_buffer app ~tag:"rng" ~size:(max n 16) in
  match Libtock.allow_rw app ~driver:Driver_num.rng ~num:0 ~addr ~len:n with
  | Error _ -> Bytes.empty
  | Ok _ ->
      let got, _, _ =
        expect_classic app ~driver:Driver_num.rng ~sub:0 ~cmd:1 ~arg1:n ~arg2:0
      in
      let data = Emu.read_bytes app ~addr ~len:(min got n) in
      Libtock.unallow_rw app ~driver:Driver_num.rng ~num:0;
      data

let digest_op app ~driver ~key ~data =
  let dlen = Bytes.length data in
  let daddr = Emu.get_buffer app ~tag:"digest-data" ~size:(max dlen 16) in
  Emu.write_bytes app ~addr:daddr data;
  let oaddr = Emu.get_buffer app ~tag:"digest-out" ~size:32 in
  (match key with
  | Some k ->
      let kaddr = Emu.get_buffer app ~tag:"digest-key" ~size:(Bytes.length k) in
      Emu.write_bytes app ~addr:kaddr k;
      ignore
        (Libtock.allow_ro app ~driver ~num:0 ~addr:kaddr ~len:(Bytes.length k))
  | None -> ());
  ignore (Libtock.allow_ro app ~driver ~num:1 ~addr:daddr ~len:dlen);
  ignore (Libtock.allow_rw app ~driver ~num:0 ~addr:oaddr ~len:32);
  let n, _, _ = expect_classic app ~driver ~sub:0 ~cmd:1 ~arg1:0 ~arg2:0 in
  let out = Emu.read_bytes app ~addr:oaddr ~len:(min n 32) in
  Libtock.unallow_ro app ~driver ~num:1;
  Libtock.unallow_rw app ~driver ~num:0;
  (match key with Some _ -> Libtock.unallow_ro app ~driver ~num:0 | None -> ());
  out

let sha256 app data = digest_op app ~driver:Driver_num.sha ~key:None ~data

let hmac_sha256 app ~key ~data =
  digest_op app ~driver:Driver_num.hmac ~key:(Some key) ~data

let aes_ctr app ~key ~iv data =
  let len = Bytes.length data in
  let kaddr = Emu.get_buffer app ~tag:"aes-key" ~size:16 in
  let iaddr = Emu.get_buffer app ~tag:"aes-iv" ~size:16 in
  let daddr = Emu.get_buffer app ~tag:"aes-data" ~size:(max len 16) in
  Emu.write_bytes app ~addr:kaddr key;
  Emu.write_bytes app ~addr:iaddr iv;
  Emu.write_bytes app ~addr:daddr data;
  ignore (Libtock.allow_ro app ~driver:Driver_num.aes ~num:0 ~addr:kaddr ~len:16);
  ignore (Libtock.allow_ro app ~driver:Driver_num.aes ~num:1 ~addr:iaddr ~len:16);
  ignore (Libtock.allow_rw app ~driver:Driver_num.aes ~num:0 ~addr:daddr ~len);
  let n, _, _ =
    expect_classic app ~driver:Driver_num.aes ~sub:0 ~cmd:1 ~arg1:0 ~arg2:0
  in
  let out = Emu.read_bytes app ~addr:daddr ~len:(min n len) in
  Libtock.unallow_ro app ~driver:Driver_num.aes ~num:0;
  Libtock.unallow_ro app ~driver:Driver_num.aes ~num:1;
  Libtock.unallow_rw app ~driver:Driver_num.aes ~num:0;
  out

(* ---- kv ---- *)

let kv_call app ~cmd ~key ~value =
  let klen = String.length key in
  let kaddr = Emu.get_buffer app ~tag:"kv-key" ~size:(max klen 16) in
  Emu.write_string app ~addr:kaddr key;
  ignore
    (Libtock.allow_ro app ~driver:Driver_num.kv_store ~num:0 ~addr:kaddr
       ~len:klen);
  (match value with
  | Some v ->
      let vaddr =
        Emu.get_buffer app ~tag:"kv-value" ~size:(max (Bytes.length v) 16)
      in
      Emu.write_bytes app ~addr:vaddr v;
      ignore
        (Libtock.allow_ro app ~driver:Driver_num.kv_store ~num:1 ~addr:vaddr
           ~len:(Bytes.length v))
  | None -> ());
  let oaddr = Emu.get_buffer app ~tag:"kv-out" ~size:256 in
  ignore
    (Libtock.allow_rw app ~driver:Driver_num.kv_store ~num:0 ~addr:oaddr
       ~len:256);
  let r =
    call_classic app ~driver:Driver_num.kv_store ~sub:0 ~cmd ~arg1:0 ~arg2:0
  in
  Libtock.unallow_ro app ~driver:Driver_num.kv_store ~num:0;
  Libtock.unallow_ro app ~driver:Driver_num.kv_store ~num:1;
  Libtock.unallow_rw app ~driver:Driver_num.kv_store ~num:0;
  match r with
  | Error e -> Error e
  | Ok (status, len, _) ->
      if status = 0 then Ok (Some (Emu.read_bytes app ~addr:oaddr ~len))
      else if status = -Error.to_int Error.NODEVICE then Ok None
      else
        Error
          (Option.value (Error.of_int (-status)) ~default:Error.FAIL)

let kv_set app ~key ~value =
  match kv_call app ~cmd:2 ~key ~value:(Some value) with
  | Ok _ -> Ok ()
  | Error e -> Error e

let kv_get app ~key = kv_call app ~cmd:1 ~key ~value:None

let kv_delete app ~key =
  match kv_call app ~cmd:3 ~key ~value:None with
  | Ok (Some b) -> Ok (Bytes.length b > 0)
  | Ok None -> Ok false
  | Error e -> Error e

(* ---- radio ---- *)

let radio_send app ~dest payload =
  let len = Bytes.length payload in
  let addr = Emu.get_buffer app ~tag:"radio-tx" ~size:(max len 16) in
  Emu.write_bytes app ~addr payload;
  ignore (Libtock.allow_ro app ~driver:Driver_num.radio ~num:0 ~addr ~len);
  let r =
    call_classic app ~driver:Driver_num.radio ~sub:0 ~cmd:1 ~arg1:dest ~arg2:len
  in
  Libtock.unallow_ro app ~driver:Driver_num.radio ~num:0;
  match r with Ok _ -> Ok () | Error e -> Error e

let radio_listen app ~rx_buf_size =
  let addr = Emu.get_buffer app ~tag:"radio-rx" ~size:rx_buf_size in
  ignore
    (Libtock.allow_rw app ~driver:Driver_num.radio ~num:0 ~addr
       ~len:rx_buf_size);
  ignore (Libtock.command app ~driver:Driver_num.radio ~cmd:2 ~arg1:0 ~arg2:0)

let radio_next app =
  let got = ref None in
  ignore
    (Libtock.subscribe app ~driver:Driver_num.radio ~sub:1 (fun src len _ ->
         got := Some (src, len)));
  while !got = None do
    Libtock.yield_wait app
  done;
  match !got with
  | Some (src, len) ->
      let addr = Emu.get_buffer app ~tag:"radio-rx" ~size:len in
      (src, Emu.read_bytes app ~addr ~len)
  | None -> (0, Bytes.empty)

(* ---- ipc ---- *)

let ipc_register app =
  ignore (Libtock.command app ~driver:Driver_num.ipc ~cmd:2 ~arg1:0 ~arg2:0)

let ipc_discover app name =
  let len = String.length name in
  let addr = Emu.get_buffer app ~tag:"ipc-name" ~size:(max len 16) in
  Emu.write_string app ~addr name;
  ignore (Libtock.allow_ro app ~driver:Driver_num.ipc ~num:0 ~addr ~len);
  let r = Libtock.command app ~driver:Driver_num.ipc ~cmd:1 ~arg1:0 ~arg2:0 in
  Libtock.unallow_ro app ~driver:Driver_num.ipc ~num:0;
  match r with
  | Syscall.Success_u32 pid -> Ok pid
  | Syscall.Failure e -> Error e
  | _ -> Error Error.FAIL

let ipc_notify app ~pid ~value =
  match Libtock.command app ~driver:Driver_num.ipc ~cmd:3 ~arg1:pid ~arg2:value with
  | Syscall.Success -> Ok ()
  | Syscall.Failure e -> Error e
  | _ -> Error Error.FAIL

let ipc_send_bytes app ~pid payload =
  let len = Bytes.length payload in
  let addr = Emu.get_buffer app ~tag:"ipc-tx" ~size:(max len 16) in
  Emu.write_bytes app ~addr payload;
  ignore (Libtock.allow_ro app ~driver:Driver_num.ipc ~num:1 ~addr ~len);
  let r = Libtock.command app ~driver:Driver_num.ipc ~cmd:4 ~arg1:pid ~arg2:len in
  Libtock.unallow_ro app ~driver:Driver_num.ipc ~num:1;
  match r with
  | Syscall.Success_u32 n -> Ok n
  | Syscall.Failure e -> Error e
  | _ -> Error Error.FAIL

let ipc_open_mailbox app ~size =
  let addr = Emu.get_buffer app ~tag:"ipc-rx" ~size in
  ignore (Libtock.allow_rw app ~driver:Driver_num.ipc ~num:1 ~addr ~len:size)

let ipc_next_message app =
  let got = ref None in
  ignore
    (Libtock.subscribe app ~driver:Driver_num.ipc ~sub:1 (fun sender n _ ->
         got := Some (sender, n)));
  while !got = None do
    Libtock.yield_wait app
  done;
  match !got with
  | Some (sender, n) ->
      let addr = Emu.get_buffer app ~tag:"ipc-rx" ~size:n in
      (sender, Emu.read_bytes app ~addr ~len:n)
  | None -> (0, Bytes.empty)

let ipc_next_notification app =
  let got = ref None in
  ignore
    (Libtock.subscribe app ~driver:Driver_num.ipc ~sub:0 (fun sender v _ ->
         got := Some (sender, v)));
  while !got = None do
    Libtock.yield_wait app
  done;
  Option.value !got ~default:(0, 0)
