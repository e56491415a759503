(** System call classes and the register-level ABI (Tock 2.0, TRD 104).

    Calls and returns are encoded to and from a 5-slot register file
    (class number + r0..r3), exactly as the real ABI packs them on
    Cortex-M/RISC-V. The userland library encodes calls and decodes
    returns; the kernel does the reverse — so the ABI layer is genuinely
    exercised (and round-trip property-tested) rather than modelled as a
    function call.

    The [Command_blocking] class is the *extension* Tock mainline never
    merged: the blocking command the Ti50 fork added to collapse the
    subscribe/command/yield/unsubscribe sequence into one call
    (paper §3.2). It is gated by kernel configuration. *)

type yield_kind =
  | Yield_no_wait
  | Yield_wait
  | Yield_wait_for of { driver : int; subscribe_num : int }

type call =
  | Yield of yield_kind
  | Subscribe of {
      driver : int;
      subscribe_num : int;
      upcall_fn : int;  (** function "pointer"; 0 = null upcall *)
      appdata : int;
    }
  | Command of { driver : int; command_num : int; arg1 : int; arg2 : int }
  | Allow_rw of { driver : int; allow_num : int; addr : int; len : int }
  | Allow_ro of { driver : int; allow_num : int; addr : int; len : int }
  | Memop of { op : int; arg : int }
  | Exit of { variant : int; code : int }
      (** variant 0 = terminate, 1 = restart *)
  | Command_blocking of {
      driver : int;
      command_num : int;
      arg1 : int;
      arg2 : int;
      subscribe_num : int;
          (** the completion upcall slot whose arguments become the return
              value *)
    }

type ret =
  | Failure of Error.t
  | Failure_u32 of Error.t * int
  | Failure_u32_u32 of Error.t * int * int
  | Success
  | Success_u32 of int
  | Success_u32_u32 of int * int
  | Success_u32_u32_u32 of int * int * int

val registers : int
(** 5: class + r0..r3. *)

(** {2 Class numbers}

    The value of a frame's first register, per TRD 104; 0x80 is the
    local blocking-command extension. *)

val class_yield : int

val class_subscribe : int

val class_command : int

val class_allow_rw : int

val class_allow_ro : int

val class_memop : int

val class_exit : int

val class_command_blocking : int

val encode_call : call -> int array
(** @raise Invalid_argument if a [Command_blocking]'s [arg2] or
    [subscribe_num] is outside 0-0xFFFF (see {!pack_blocking}). *)

val decode_call : int array -> (call, Error.t) result
(** INVAL on malformed encodings, NOSUPPORT on unknown classes. Built on
    {!verdict}, the same classification the kernel dispatches on. *)

(** {2 Register-level classification}

    The kernel dispatches straight from a trap frame without building a
    {!call}: {!verdict} is the one place that decides whether a frame
    decodes, and {!decode_call} is built on it. *)

val classes : int
(** 8: the seven TRD 104 classes plus the blocking-command extension. *)

val class_index : int -> int
(** Dense index of a class number: 0-6 for classes 0-6, 7 for 0x80, -1
    for anything else. *)

val class_of_index : int -> int
(** Inverse of {!class_index} on 0-7. *)

val verdict_inval : int
(** -1: the frame is not 5 registers, or a yield's [r0] is outside 0-2. *)

val verdict_nosupport : int
(** -2: unknown class number. *)

val verdict : int array -> int
(** The class index (0-7) of a decodable frame, otherwise
    {!verdict_inval} or {!verdict_nosupport}. Allocation-free. *)

val pack_blocking : arg2:int -> subscribe_num:int -> int
(** The r3 of a blocking command: [arg2] in the low 16 bits, the
    completion slot in the high 16.
    @raise Invalid_argument if either is outside 0-0xFFFF (the packing
    would silently rewrite it). *)

val blocking_arg2 : int -> int
(** The [arg2] half of a blocking command's r3. *)

val blocking_subscribe_num : int -> int
(** The completion-slot half of a blocking command's r3. *)

(** {2 Returns} *)

val encode_ret : ret -> int array
(** 4 registers, TRD 104 variant tags (Failure = 0 ... Success = 128...). *)

val encode_ret_into : ret -> int array -> unit
(** Like {!encode_ret} but writes into a caller-owned 4-register array —
    the kernel's allocation-free per-syscall return path. The buffer must
    not be re-encoded before the process has decoded it.
    @raise Invalid_argument on a wrong-sized buffer. *)

(** In-place writers for the return shapes the kernel builds itself, so
    no {!ret} value is allocated on the trap path. Each fills all four
    registers exactly as {!encode_ret_into} would.
    @raise Invalid_argument on a wrong-sized buffer. *)

val set_failure : int array -> Error.t -> unit

val set_failure_u32_u32 : int array -> Error.t -> int -> int -> unit

val set_success : int array -> unit

val set_success_u32 : int array -> int -> unit

val set_success_u32_u32 : int array -> int -> int -> unit

val set_success_u32_u32_u32 : int array -> int -> int -> int -> unit

val decode_ret_exn : int array -> ret
(** Decode return registers, building only the {!ret}.
    @raise Invalid_argument on a wrong register count, an unknown variant
    tag or an unknown error code. *)

val decode_ret : int array -> (ret, string) result
(** {!decode_ret_exn} with the failure as [Error]. *)

val pp_call : Format.formatter -> call -> unit

val pp_ret : Format.formatter -> ret -> unit

val ret_is_success : ret -> bool

(** {2 Memop operation numbers}

    [memop_brk] = 0, [memop_sbrk] = 1, [memop_flash_start] = 2,
    [memop_flash_end] = 3, [memop_ram_start] = 4, [memop_ram_end] = 5. *)

val memop_brk : int

val memop_sbrk : int

val memop_flash_start : int

val memop_flash_end : int

val memop_ram_start : int

val memop_ram_end : int
