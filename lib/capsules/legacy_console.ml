open Tock

let driver_num = 0x10002

(* The v1-style stash: capsule-held raw buffer coordinates, captured when
   an operation starts and used later regardless of revocation. *)
type stash = { s_pid : Process.id; s_addr : int; s_len : int }

type t = {
  kernel : Kernel.t;
  valarm : Alarm_mux.valarm;
  mutable stashed : stash option; (* captured at operation start (v1!) *)
  mutable stale : int;
  mutable writes : int;
}

let create kernel mux =
  { kernel; valarm = Alarm_mux.new_alarm mux; stashed = None; stale = 0; writes = 0 }

let do_delayed_write t =
  match t.stashed with
  | None -> ()
  | Some s -> (
      match Kernel.find_process t.kernel s.s_pid with
      | None -> ()
      | Some proc ->
          if s.s_len > 0 then begin
            (* Is the stash still what userspace has allowed? If not, this
               write is a use of a revoked reference. *)
            let current =
              Process.allow_get proc ~kind:`Rw ~driver:driver_num ~allow_num:0
            in
            let is_stale =
              current.Process.a_addr <> s.s_addr
              || current.Process.a_len <> s.s_len
            in
            if is_stale then t.stale <- t.stale + 1;
            t.writes <- t.writes + 1;
            (* The unsound raw write through the stashed coordinates. *)
            (match Process.mem_view proc ~addr:s.s_addr ~len:s.s_len with
            | Some (`Ram off) ->
                let ram = Process.ram_bytes proc in
                let stamp = Alarm_mux.now t.valarm land 0xff in
                for i = 0 to s.s_len - 1 do
                  Bytes.set ram (off + i) (Char.chr stamp)
                done
            | _ -> ());
            ignore
              (Kernel.schedule_upcall t.kernel s.s_pid ~driver:driver_num
                 ~subscribe_num:0 ~args:(s.s_len, 0, 0))
          end)

let command t proc ~command_num ~arg1 ~arg2:_ =
  match command_num with
  | 0 -> Syscall.Success
  | 1 ->
      (* V1 semantics: the capsule held an owning wrapper to whatever was
         shared when the operation started, and keeps it across any later
         re-allow — the kernel cannot make it let go. *)
      let shared =
        Process.allow_get proc ~kind:`Rw ~driver:driver_num ~allow_num:0
      in
      t.stashed <-
        Some
          {
            s_pid = Process.id proc;
            s_addr = shared.Process.a_addr;
            s_len = shared.Process.a_len;
          };
      Alarm_mux.set_client t.valarm (fun () -> do_delayed_write t);
      Alarm_mux.set_relative t.valarm ~dt:(max 1 arg1);
      Syscall.Success
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver t =
  Driver.make ~driver_num ~name:"legacy-console"
    (fun proc ~command_num ~arg1 ~arg2 -> command t proc ~command_num ~arg1 ~arg2)

let stale_writes t = t.stale

let total_writes t = t.writes
