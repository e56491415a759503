open Tock

type grant_state = { valarm : Alarm_mux.valarm }

type t = { kernel : Kernel.t; mux : Alarm_mux.t; grant : grant_state Grant.t }

let enter t proc f = Grant.enter t.grant proc f

(* Freeze/thaw: the witness records the mux's grant-owned virtual alarms
   in allocation order (fire sweeps visit clients in list order, so the
   order is observable under simultaneous expiries) plus each armed
   alarm's absolute (reference, dt). Thaw's [`Pre] load preallocates the
   grants in that order — rebuilding the mux list — and installs the
   resume alarm each live app's prologue re-arms via command 4. *)

module Frame = Tock_obs.Frame

let freeze_save t buf =
  let procs = Kernel.processes t.kernel in
  let entries = ref [] in
  Alarm_mux.iter_alarms t.mux (fun v ->
      List.iter
        (fun p ->
          match Grant.peek t.grant p with
          | Some g when g.valarm == v ->
              (* iter visits newest-first; prepending leaves the final
                 list in allocation order. *)
              entries := (Process.id p, Alarm_mux.is_armed v, v) :: !entries
          | _ -> ())
        procs);
  Frame.add_list buf
    (fun (pid, armed, v) ->
      Frame.add_int buf pid;
      Frame.add_int buf (if armed then 1 else 0);
      if armed then begin
        (* (reference, dt) is stale on a disarmed alarm: elided. *)
        let reference, dt = Alarm_mux.alarm_params v in
        Frame.add_int buf reference;
        Frame.add_int buf dt
      end)
    !entries

let freeze_load t r =
  let procs = Kernel.processes t.kernel in
  ignore
  @@ Frame.list r ~min:16 (fun r ->
         let pid = Frame.int r in
         let armed = Frame.int r in
         let resume =
           if armed = 1 then begin
             let reference = Frame.int r in
             Some (reference, Frame.int r)
           end
           else if armed = 0 then None
           else Frame.fail "bad armed flag %d" armed
         in
         match List.find_opt (fun p -> Process.id p = pid) procs with
         | None -> Frame.fail "alarm entry for unknown pid %d" pid
         | Some p ->
             if not (Grant.preallocate t.grant p) then
               Frame.fail "alarm grant preallocation failed (pid %d)" pid;
             Process.set_resume_alarm p resume)

let create kernel mux ~grant_cap =
  let t =
    {
      kernel;
      mux;
      grant =
        Grant.create ~cap:grant_cap ~name:"alarm" ~size_bytes:24 ~init:(fun () ->
            { valarm = Alarm_mux.new_alarm mux });
    }
  in
  Kernel.register_grant kernel t.grant;
  Kernel.register_freezer kernel ~name:"alarm" ~phase:`Pre
    ~save:(fun buf -> freeze_save t buf)
    ~load:(fun r -> freeze_load t r);
  t

(* Arm [g]'s virtual alarm at absolute (reference, dt) and register the
   completion upcall. Shared by command 4 (absolute, also the thaw
   resume path) and command 5 (relative). *)
let arm t g pid ~reference ~dt =
  Alarm_mux.set_client g.valarm (fun () ->
      ignore
        (Kernel.schedule_upcall t.kernel pid ~driver:Driver_num.alarm
           ~subscribe_num:0
           ~args:(Alarm_mux.now g.valarm, reference, 0)));
  Alarm_mux.set_alarm g.valarm ~reference ~dt;
  reference

let command t proc ~command_num ~arg1 ~arg2 =
  let pid = Process.id proc in
  match command_num with
  | 0 -> Syscall.Success
  | 1 -> (
      match enter t proc (fun g -> Alarm_mux.frequency_hz g.valarm) with
      | Ok hz -> Syscall.Success_u32 hz
      | Error e -> Syscall.Failure e)
  | 2 -> (
      match enter t proc (fun g -> Alarm_mux.now g.valarm) with
      | Ok ticks -> Syscall.Success_u32 ticks
      | Error e -> Syscall.Failure e)
  | 4 -> (
      (* arm an absolute alarm: reference = arg1, dt = arg2 *)
      let r =
        enter t proc (fun g ->
            arm t g pid ~reference:(arg1 land 0xFFFF_FFFF)
              ~dt:(arg2 land 0xFFFF_FFFF))
      in
      match r with
      | Ok reference -> Syscall.Success_u32 reference
      | Error e -> Syscall.Failure e)
  | 5 -> (
      (* arm a relative alarm of arg1 ticks *)
      let r =
        enter t proc (fun g ->
            arm t g pid ~reference:(Alarm_mux.now g.valarm) ~dt:arg1)
      in
      match r with
      | Ok reference -> Syscall.Success_u32 reference
      | Error e -> Syscall.Failure e)
  | 6 -> (
      match
        enter t proc (fun g -> Alarm_mux.cancel g.valarm)
      with
      | Ok () -> Syscall.Success
      | Error e -> Syscall.Failure e)
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver t =
  Driver.make ~driver_num:Driver_num.alarm ~name:"alarm"
    (fun proc ~command_num ~arg1 ~arg2 -> command t proc ~command_num ~arg1 ~arg2)
