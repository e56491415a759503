(** libtock-sync: synchronous wrappers over the asynchronous syscall
    interface (paper §3.2).

    Root-of-trust applications are mostly sequential state machines, and
    "a simple synchronous operation ... can become a half dozen system
    calls". This module provides the three call patterns whose costs the
    [e-syscall-patterns] experiment compares:

    - {!call_classic}: subscribe → command → yield-wait (looping until our
      completion flag) → unsubscribe — the original 4+-syscall pattern;
    - {!waitfor_handle}/{!call_waitfor}: command → yield-wait-for, after a
      one-time subscription — the mainline Tock 2.x improvement;
    - {!call_blocking}: the single blocking command the Ti50 fork added
      (fails NOSUPPORT unless the kernel enables the extension).

    The typed helpers below ({!sleep_ticks}, {!console_write}, ...) use
    [call_classic] by default, matching what libtock-c's synchronous
    layer does. *)

type result3 = (int * int * int, Tock.Error.t) result

val call_classic :
  Emu.app -> driver:int -> sub:int -> cmd:int -> arg1:int -> arg2:int -> result3

type waitfor_handle

val waitfor_handle : Emu.app -> driver:int -> sub:int -> waitfor_handle
(** Performs the one-time dummy subscription. *)

val call_waitfor :
  waitfor_handle -> cmd:int -> arg1:int -> arg2:int -> result3

val call_blocking :
  Emu.app -> driver:int -> sub:int -> cmd:int -> arg1:int -> arg2:int -> result3

val call_with_timeout :
  Emu.app ->
  driver:int ->
  sub:int ->
  cmd:int ->
  arg1:int ->
  arg2:int ->
  timeout_ticks:int ->
  (int * int * int) option
(** The paper's §3.2 example, literally: "a simple synchronous operation
    such as 'wait for a response with a timeout' can become a half dozen
    system calls — allow a buffer, register two callbacks, issue commands,
    then wait". Subscribes both the operation's and the alarm's upcalls,
    starts both, yields until one fires, then cancels and unsubscribes the
    other. [None] = timed out. *)

(** {2 Typed synchronous services} *)

val sleep_ticks : Emu.app -> int -> unit
(** Block (yielding) for [dt] alarm ticks. *)

val resume_sleep : Emu.app -> unit
(** Thaw prologue for resumable apps: re-enter the sleep the frozen app
    was suspended in, re-arming the alarm at the {e absolute}
    (reference, dt) installed by {!Tock.Kernel.thaw} (alarm command 4)
    and blocking in the same subscribe/command/yield-wait shape as
    {!sleep_ticks}. Call only when {!Emu.resume_point} is nonzero;
    panics the app if no frozen alarm was recorded. *)

val checkpoint_sleep : Emu.app -> cursor:int -> ticks:int -> unit
(** Record the loop [cursor] ({!Emu.checkpoint}), then sleep [ticks]
    with the process marked at its protocol sleep — the one suspension
    point {!Tock.Kernel.thaw} will accept for a live process. While the
    app waits anywhere else, {!Tock.Kernel.resumable} is false and a
    fleet does not park its board. Resumable apps must use this instead
    of a bare checkpoint + {!sleep_ticks} pair. *)

val alarm_frequency : Emu.app -> int

val console_write : Emu.app -> string -> int
(** Returns bytes written. *)

val console_read : Emu.app -> int -> bytes

val temperature_read : Emu.app -> int
(** centi-°C. *)

val pressure_read : Emu.app -> int

val light_read : Emu.app -> int

val rng_bytes : Emu.app -> int -> bytes

val sha256 : Emu.app -> bytes -> bytes

val hmac_sha256 : Emu.app -> key:bytes -> data:bytes -> bytes

val aes_ctr : Emu.app -> key:bytes -> iv:bytes -> bytes -> bytes
(** In-place CTR transform; returns the transformed bytes. *)

val kv_set : Emu.app -> key:string -> value:bytes -> (unit, Tock.Error.t) result

val kv_get : Emu.app -> key:string -> (bytes option, Tock.Error.t) result

val kv_delete : Emu.app -> key:string -> (bool, Tock.Error.t) result

val radio_send : Emu.app -> dest:int -> bytes -> (unit, Tock.Error.t) result

val radio_listen : Emu.app -> rx_buf_size:int -> unit
(** Start listening; received frames arrive via {!radio_next}. *)

val radio_next : Emu.app -> int * bytes
(** Block until the next received frame; returns (src, payload). *)

val ipc_register : Emu.app -> unit

val ipc_discover : Emu.app -> string -> (int, Tock.Error.t) result

val ipc_notify : Emu.app -> pid:int -> value:int -> (unit, Tock.Error.t) result

val ipc_next_notification : Emu.app -> int * int
(** Block until notified; returns (sender_pid, value). *)

val ipc_send_bytes : Emu.app -> pid:int -> bytes -> (int, Tock.Error.t) result
(** Copy a message into the target process's shared receive buffer (the
    target must have called {!ipc_open_mailbox}). Returns bytes copied. *)

val ipc_open_mailbox : Emu.app -> size:int -> unit
(** Share a receive buffer with the IPC capsule. *)

val ipc_next_message : Emu.app -> int * bytes
(** Block until a message lands in the mailbox; returns (sender, copy of
    the payload). *)
