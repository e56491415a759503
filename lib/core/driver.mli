(** The capsule system-call driver interface (Fig. 2's "narrow,
    restrictive interfaces").

    In Tock 2.0 the kernel — not the capsule — owns allow buffers and
    subscriptions (paper §3.3). A capsule therefore only implements
    [command], plus an optional *hook* that sees, and may veto, each
    read-write allow (the legacy console uses it to keep the buffer a
    v1 capsule would have stashed). The swap itself is performed by the
    kernel after the hook accepts; read-only allows and subscribes are
    always the kernel's alone. *)

type t = {
  driver_num : int;
  driver_name : string;
  command :
    Process.t -> command_num:int -> arg1:int -> arg2:int -> Syscall.ret;
  allow_rw_hook :
    Process.t -> allow_num:int -> Process.allow_entry -> (unit, Error.t) result;
}

val make :
  ?allow_rw_hook:
    (Process.t -> allow_num:int -> Process.allow_entry -> (unit, Error.t) result) ->
  driver_num:int ->
  name:string ->
  (Process.t -> command_num:int -> arg1:int -> arg2:int -> Syscall.ret) ->
  t
(** The hook defaults to accepting everything. Command 0 should follow the
    Tock convention: "driver exists" check returning [Success]. *)
