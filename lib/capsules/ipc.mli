(** Inter-process communication capsule (driver 0x10000).

    Mutually distrustful processes (paper §2.3) coordinate only through
    the kernel. A process registers as a *service* under its package
    name; clients discover services by name and exchange 32-bit notify
    values — a deliberately narrow channel (shared-memory IPC would
    require mapping one process's memory into another's MPU view, which
    the paper's threat model restricts).

    Protocol: allow-ro 0 = service-name bytes; command 1 = discover (
    Success_u32 service pid); command 2 = register self as service;
    command 3 (pid, value) = notify; upcall sub 0 = [(sender_pid, value,
    0)].

    Message passing (copy-based, the kernel mediates; processes never see
    each other's memory): sender shares allow-ro 1, receiver shares
    allow-rw 1; command 4 (pid, len) copies min(len, receiver window)
    bytes and schedules upcall sub 1 = [(sender_pid, copied, 0)] on the
    receiver. *)

type t

val create : Tock.Kernel.t -> t

val driver : t -> Tock.Driver.t

val bytes_transferred : t -> int
