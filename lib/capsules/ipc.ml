open Tock

type t = {
  kernel : Kernel.t;
  services : (string, Process.id) Hashtbl.t;
  mutable bytes : int;
}

let create kernel =
  { kernel; services = Hashtbl.create 8; bytes = 0 }

let read_name t pid =
  match
    Kernel.with_allow_ro t.kernel pid ~driver:Driver_num.ipc ~allow_num:0
      (fun b -> Subslice.to_bytes b)
  with
  | Ok b when Bytes.length b > 0 -> Some (Bytes.to_string b)
  | _ -> None

let command t proc ~command_num ~arg1 ~arg2 =
  let pid = Process.id proc in
  match command_num with
  | 0 -> Syscall.Success
  | 1 -> (
      (* discover a service by its allowed name *)
      match read_name t pid with
      | None -> Syscall.Failure Error.RESERVE
      | Some name -> (
          match Hashtbl.find_opt t.services name with
          | Some spid -> Syscall.Success_u32 spid
          | None -> Syscall.Failure Error.NODEVICE))
  | 2 ->
      (* register the calling process as a service under its own name *)
      (match Kernel.process_name_of t.kernel pid with
      | Some name ->
          Hashtbl.replace t.services name pid;
          Syscall.Success
      | None -> Syscall.Failure Error.FAIL)
  | 3 ->
      (* notify process arg1 with value arg2 *)
      if Kernel.find_process t.kernel arg1 = None then
        Syscall.Failure Error.NODEVICE
      else begin
        ignore
          (Kernel.schedule_upcall t.kernel arg1 ~driver:Driver_num.ipc
             ~subscribe_num:0 ~args:(pid, arg2, 0));
        Syscall.Success
      end
  | 4 ->
      (* move a message to process arg1: sender allow-ro 1 -> receiver
         allow-rw 1, both windows resolved through the kernel tables so
         neither process touches the other's memory. One window-to-window
         blit — no kernel staging buffer in between. *)
      if Kernel.find_process t.kernel arg1 = None then
        Syscall.Failure Error.NODEVICE
      else begin
        let src =
          match
            Kernel.allow_window t.kernel pid ~kind:`Ro ~driver:Driver_num.ipc
              ~allow_num:1
          with
          | Some w ->
              Subslice.slice_to w (min arg2 (Subslice.length w));
              w
          | None -> Subslice.of_bytes Bytes.empty
        in
        if Subslice.length src = 0 then Syscall.Failure Error.RESERVE
        else
          let copied =
            match
              Kernel.with_allow_rw t.kernel arg1 ~driver:Driver_num.ipc
                ~allow_num:1 (fun dst ->
                  let n = min (Subslice.length src) (Subslice.length dst) in
                  Subslice.blit ~src ~src_off:0 ~dst ~dst_off:0 ~len:n;
                  n)
            with
            | Ok n -> n
            | Error _ -> 0
          in
          t.bytes <- t.bytes + copied;
          ignore
            (Kernel.schedule_upcall t.kernel arg1 ~driver:Driver_num.ipc
               ~subscribe_num:1 ~args:(pid, copied, 0));
          Syscall.Success_u32 copied
      end
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver t =
  Driver.make ~driver_num:Driver_num.ipc ~name:"ipc"
    (fun proc ~command_num ~arg1 ~arg2 -> command t proc ~command_num ~arg1 ~arg2)

let bytes_transferred t = t.bytes
