open Tock

type t = { pins : Hil.gpio_pin array; active_high : bool; state : bool array }

let create ~leds ~active_high =
  Array.iter (fun p -> p.Hil.pin_make_output ()) leds;
  Array.iter (fun p -> p.Hil.pin_set (not active_high)) leds;
  { pins = leds; active_high; state = Array.make (Array.length leds) false }

let put t i v =
  t.state.(i) <- v;
  t.pins.(i).Hil.pin_set (if t.active_high then v else not v)

let command t _proc ~command_num ~arg1 ~arg2:_ =
  let n = Array.length t.pins in
  let check i k = if i < 0 || i >= n then Syscall.Failure Error.INVAL else k () in
  match command_num with
  | 0 -> Syscall.Success_u32 n
  | 1 -> check arg1 (fun () -> put t arg1 true; Syscall.Success)
  | 2 -> check arg1 (fun () -> put t arg1 false; Syscall.Success)
  | 3 -> check arg1 (fun () -> put t arg1 (not t.state.(arg1)); Syscall.Success)
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver t =
  Driver.make ~driver_num:Driver_num.led ~name:"led"
    (fun proc ~command_num ~arg1 ~arg2 -> command t proc ~command_num ~arg1 ~arg2)
