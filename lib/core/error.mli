(** Error codes, following Tock's TRD 104 system-call ABI. *)

type t =
  | FAIL          (** generic failure *)
  | BUSY          (** underlying system busy; retry *)
  | ALREADY       (** operation already in progress / already done *)
  | OFF           (** component powered down *)
  | RESERVE       (** reservation required/failed *)
  | INVAL         (** invalid parameter *)
  | SIZE          (** size limitation *)
  | CANCEL        (** operation cancelled *)
  | NOMEM         (** out of memory *)
  | NOSUPPORT     (** operation not supported *)
  | NODEVICE      (** no such device/driver *)
  | UNINSTALLED   (** device not physically installed *)
  | NOACK         (** no acknowledgment (e.g. I2C NACK) *)

val to_int : t -> int
(** TRD 104 numbering: FAIL = 1 ... NOACK = 13. *)

val of_int : int -> t option

val to_string : t -> string

val pp : Format.formatter -> t -> unit
