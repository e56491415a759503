(** Process-introspection syscall driver (driver 0x10001).

    Read-only: lets apps learn their own pid (needed to hand out IPC
    addresses) and observe the process table the way the process console
    does — without the management capability, so it can only look.

    Commands: 1 = own pid; 2 = process count; 3 (i) = pid of the i-th
    table entry; 4 (pid) = state code (0 unstarted, 1 runnable/running,
    2 yielded, 3 blocked, 4 faulted, 5 terminated, 6 stopped); 5 (pid) =
    restart count. *)

type t

val create : Tock.Kernel.t -> t

val driver : t -> Tock.Driver.t
