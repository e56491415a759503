(** I2C master with addressed slave devices.

    Sensor models register as slaves; the master performs write, read, and
    write-then-read transactions with wire timing and interrupt-driven
    completion, matching Tock's [hil::i2c]. Addressing a missing device
    completes with a NACK error, which drivers must handle. *)

type t

type result_code = Done | Nack

val create : Sim.t -> Irq.t -> irq_line:int -> cycles_per_byte:int -> t

val add_device :
  t ->
  addr:int ->
  on_write:(bytes -> unit) ->
  on_read:(int -> bytes) ->
  unit
(** [on_read n] must return exactly [n] bytes. *)

val write : t -> addr:int -> (bytes * int * int) list -> (unit, Completion.refusal) result
(** Begin a transaction writing the [(buf, off, len)] segments back to
    back; completion via client callback. *)

val read : t -> addr:int -> len:int -> (unit, Completion.refusal) result

val write_read :
  t -> addr:int -> (bytes * int * int) list -> read_len:int -> (unit, Completion.refusal) result
(** Combined write-then-read (repeated start). *)

val set_client : t -> (result_code -> bytes -> unit) -> unit
(** [client code rx] runs at completion; [rx] is empty for writes and
    NACKs. *)
