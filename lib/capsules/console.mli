(** Console syscall driver: process printing and line input over a
    virtual UART (driver 0x1).

    Userspace protocol (libtock-c compatible in shape):
    - allow-ro 1: transmit buffer; command 1 (len): write; upcall sub 1
      [(len, 0, 0)] on completion.
    - allow-rw 1: receive buffer; command 2 (len): read; upcall sub 2
      [(len, 0, 0)]; command 3: abort read.

    Writes from different processes are copied into the capsule's single
    static buffer (a Take_cell) and serialized through the UART mux;
    concurrent writers queue per process. The copy out of app memory
    happens inside a [with_allow_ro] closure — the capsule never holds a
    reference to process memory across the split-phase gap (paper §3.3). *)

type t

val create :
  Tock.Kernel.t ->
  Uart_mux.vdev ->
  grant_cap:Tock.Capability.memory_allocation ->
  t

val driver : t -> Tock.Driver.t
(** Register this with the kernel. *)

val writes_completed : t -> int
