(** The capsule system-call driver interface (Fig. 2's "narrow,
    restrictive interfaces").

    In Tock 2.0 the kernel — not the capsule — owns allow buffers and
    subscriptions (paper §3.3). A capsule therefore implements
    [command] alone: allows and subscribes are the kernel's, and a
    capsule reaches a shared buffer only through the kernel's current
    table, at the moment it uses it. *)

type t = {
  driver_num : int;
  driver_name : string;
  command :
    Process.t -> command_num:int -> arg1:int -> arg2:int -> Syscall.ret;
}

val make :
  driver_num:int ->
  name:string ->
  (Process.t -> command_num:int -> arg1:int -> arg2:int -> Syscall.ret) ->
  t
(** Command 0 should follow the Tock convention: "driver exists" check
    returning [Success]. *)
