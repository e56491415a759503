type t = {
  driver_num : int;
  driver_name : string;
  command :
    Process.t -> command_num:int -> arg1:int -> arg2:int -> Syscall.ret;
  allow_rw_hook :
    Process.t -> allow_num:int -> Process.allow_entry -> (unit, Error.t) result;
}

let accept_allow _proc ~allow_num:_ _entry = Ok ()

let make ?(allow_rw_hook = accept_allow) ~driver_num ~name command =
  { driver_num; driver_name = name; command; allow_rw_hook }
