(** libtock: the typed asynchronous system-call interface (paper §2.5).

    Thin, faithful wrappers over the raw register ABI: share a buffer
    ([allow]), register a callback ([subscribe]), start the operation
    ([command]), and [yield] to receive completions — the exact sequence
    the paper describes as powerful for multiplexing but verbose for
    sequential code (which is {!Libtock_sync}'s job to paper over).

    All functions run inside app code under {!Emu}. Each call goes
    through the app's one reusable trap frame ({!Emu.trap}) and decodes
    its return without an intermediate [result], so a successful round
    trip allocates only the returned {!Tock.Syscall.ret}. *)

type callback = int -> int -> int -> unit

val command :
  Emu.app -> driver:int -> cmd:int -> arg1:int -> arg2:int -> Tock.Syscall.ret

val subscribe :
  Emu.app ->
  driver:int ->
  sub:int ->
  callback ->
  (unit, Tock.Error.t) result
(** Registers the closure in the app's upcall table and subscribes its
    function pointer. On success, the closure of the pointer the kernel
    swaps out is removed from the table; on failure, the closure just
    registered is. So the table holds only live subscriptions, however
    many times a slot is re-subscribed. An upcall still queued for a
    removed pointer is dropped at delivery. *)

val unsubscribe : Emu.app -> driver:int -> sub:int -> unit
(** Subscribe the null upcall (Tock 2.0 swap: the old upcall comes back
    and its closure is removed from the app's table). *)

val allow_rw :
  Emu.app -> driver:int -> num:int -> addr:int -> len:int ->
  (int * int, Tock.Error.t) result
(** Returns the previously shared (addr, len) — swap semantics. *)

val allow_ro :
  Emu.app -> driver:int -> num:int -> addr:int -> len:int ->
  (int * int, Tock.Error.t) result

val unallow_rw : Emu.app -> driver:int -> num:int -> unit
(** Swap in the zero buffer (revocation). *)

val unallow_ro : Emu.app -> driver:int -> num:int -> unit

val yield_wait : Emu.app -> unit
(** Block until one upcall is delivered; its callback runs before this
    returns. *)

val yield_no_wait : Emu.app -> bool
(** True if an upcall was delivered (and its callback run). *)

val yield_wait_for : Emu.app -> driver:int -> sub:int -> int * int * int
(** Block until the matching upcall; returns its arguments directly
    without invoking any callback (TRD 104.1). *)

val command_blocking :
  Emu.app -> driver:int -> cmd:int -> arg1:int -> arg2:int -> sub:int ->
  (int * int * int, Tock.Error.t) result
(** The Ti50-fork extension: one syscall that starts the operation and
    returns its completion arguments. Fails NOSUPPORT unless the kernel
    enables it. [arg2] and [sub] share one register, 16 bits each: if
    either is outside 0-0xFFFF this returns [Error INVAL] without
    trapping. *)

val exit : Emu.app -> int -> 'a
(** Terminate; never returns (the kernel tears the process down). *)

val restart : Emu.app -> 'a

val memop : Emu.app -> op:int -> arg:int -> Tock.Syscall.ret

val ram_start : Emu.app -> int

val ram_end : Emu.app -> int

val driver_exists : Emu.app -> driver:int -> bool
(** Command 0 existence probe. *)
