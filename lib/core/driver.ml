type t = {
  driver_num : int;
  driver_name : string;
  command :
    Process.t -> command_num:int -> arg1:int -> arg2:int -> Syscall.ret;
}

let make ~driver_num ~name command = { driver_num; driver_name = name; command }
