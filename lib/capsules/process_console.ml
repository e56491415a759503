open Tock

type t = {
  kernel : Kernel.t;
  vdev : Uart_mux.vdev;
  cap : Capability.process_management;
  out : Buffer.t;
  tx : Subslice.t Cells.Take_cell.t;
  mutable tx_backlog : string list;
  rx : Subslice.t Cells.Take_cell.t;
  line : Buffer.t;
}

let state_name = function
  | Process.Unstarted -> "unstarted"
  | Process.Runnable -> "runnable"
  | Process.Yielded -> "yielded"
  | Process.Yielded_for _ -> "yielded-for"
  | Process.Blocked_command _ -> "blocked-cmd"
  | Process.Faulted _ -> "faulted"
  | Process.Terminated _ -> "terminated"
  | Process.Stopped _ -> "stopped"

let flush_tx t =
  match t.tx_backlog with
  | [] -> ()
  | line :: rest -> (
      match Cells.Take_cell.take t.tx with
      | None -> ()
      | Some sub ->
          Subslice.reset sub;
          let n = min (String.length line) (Subslice.length sub) in
          Subslice.blit_from_bytes ~src:(Bytes.of_string line) ~src_off:0 sub
            ~dst_off:0 ~len:n;
          Subslice.slice_to sub n;
          t.tx_backlog <-
            (if n < String.length line then
               String.sub line n (String.length line - n) :: rest
             else rest);
          (match Uart_mux.transmit t.vdev sub with
          | Ok () -> ()
          | Error (_, sub) ->
              Subslice.reset sub;
              Cells.Take_cell.put t.tx sub))

let print t s =
  Buffer.add_string t.out s;
  t.tx_backlog <- t.tx_backlog @ [ s ];
  flush_tx t

let find_by_name t name =
  List.find_opt
    (fun pid -> Kernel.process_name_of t.kernel pid = Some name)
    (Kernel.process_ids t.kernel)

let handle_command t line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> ()
  | [ "help" ] ->
      print t "commands: help list stats stop/start/restart/terminate <name>\r\n"
  | [ "list" ] ->
      print t " pid  name            state        restarts syscalls\r\n";
      List.iter
        (fun pid ->
          match Kernel.find_process t.kernel pid with
          | Some p ->
              print t
                (Printf.sprintf " %3d  %-15s %-12s %8d %8d\r\n" pid
                   (Process.name p)
                   (state_name (Process.state p))
                   (Process.restart_count p) (Process.syscall_count p))
          | None -> ())
        (Kernel.process_ids t.kernel)
  | [ "stats" ] ->
      let s = Kernel.stats t.kernel in
      print t
        (Printf.sprintf
           "syscalls=%d switches=%d upcalls=%d sleeps=%d faults=%d restarts=%d\r\n"
           s.Kernel.syscalls s.Kernel.context_switches s.Kernel.upcalls_delivered
           s.Kernel.sleeps s.Kernel.faults s.Kernel.restarts)
  | [ verb; name ] -> (
      match find_by_name t name with
      | None -> print t (Printf.sprintf "no such process: %s\r\n" name)
      | Some pid ->
          let r =
            match verb with
            | "stop" -> Kernel.stop_process t.kernel ~cap:t.cap pid
            | "start" -> Kernel.start_process t.kernel ~cap:t.cap pid
            | "restart" -> Kernel.restart_process t.kernel ~cap:t.cap pid
            | "terminate" -> Kernel.terminate_process t.kernel ~cap:t.cap pid
            | _ -> Result.Error Error.NOSUPPORT
          in
          (match r with
          | Ok () -> print t (Printf.sprintf "%s: %s ok\r\n" verb name)
          | Error e ->
              print t (Printf.sprintf "%s: %s failed (%s)\r\n" verb name
                         (Error.to_string e))))
  | _ -> print t "unknown command; try help\r\n"

let create kernel vdev ~cap =
  let t =
    {
      kernel;
      vdev;
      cap;
      out = Buffer.create 256;
      tx = Cells.Take_cell.make (Subslice.create 128);
      tx_backlog = [];
      rx = Cells.Take_cell.make (Subslice.create 1);
      line = Buffer.create 64;
    }
  in
  Uart_mux.set_transmit_client vdev (fun sub ->
      Subslice.reset sub;
      Cells.Take_cell.put t.tx sub;
      flush_tx t);
  t

(* Byte-at-a-time receive: accumulate until newline, run the command, and
   re-arm. *)
let rec arm_rx t =
  match Cells.Take_cell.take t.rx with
  | None -> ()
  | Some sub -> (
      Subslice.reset sub;
      match Uart_mux.receive t.vdev sub with
      | Ok () -> ()
      | Error (_, sub) ->
          Subslice.reset sub;
          Cells.Take_cell.put t.rx sub)

and on_rx t sub result =
  let c = Subslice.get sub 0 in
  Subslice.reset sub;
  Cells.Take_cell.put t.rx sub;
  match result with
  | Error _ -> () (* a cancelled receive carries no byte; listening stops *)
  | Ok () ->
      if c = '\n' || c = '\r' then begin
        let line = Buffer.contents t.line in
        Buffer.clear t.line;
        if String.trim line <> "" then handle_command t line
      end
      else Buffer.add_char t.line c;
      arm_rx t

let start_listening t =
  Uart_mux.set_receive_client t.vdev (fun sub result -> on_rx t sub result);
  arm_rx t

let inject_line t line = handle_command t line

let output t = Buffer.contents t.out
