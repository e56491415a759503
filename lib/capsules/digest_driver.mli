(** HMAC (0x40003) and SHA (0x40005) syscall drivers over the digest
    engine HIL.

    One capsule instance serves both driver numbers over the single
    engine, serializing operations (the engine has one data path — a
    second request while busy gets BUSY, as on real silicon).

    This is the root-of-trust workload of paper §3.3.3: keys typically
    live in read-only flash, so userspace shares them via *allow-readonly*
    — the Tock 2.0 addition that avoids copying into scarce RAM. The
    [e-allow-ro] experiment uses this driver.

    Protocol (per driver):
    - HMAC: allow-ro 0 = key, allow-ro 1 = data, allow-rw 0 = digest out,
      command 1 = run; upcall sub 0 = [(32, 0, 0)] on success.
    - SHA: allow-ro 1 = data, allow-rw 0 = digest out, command 1 = run.

    Data is streamed to the engine in 64-byte DMA chunks through the
    capsule's static buffer. *)

type t

val create : Tock.Kernel.t -> Tock.Hil.digest -> t

val driver_hmac : t -> Tock.Driver.t

val driver_sha : t -> Tock.Driver.t
