(** Memory-mapped I/O register maps with typed fields (paper §4.3).

    Tock wraps every MMIO address in a type exposing only the operations
    the datasheet permits, and generates field bit-shifting code from a
    declarative description. This module is the same DSL in runtime form:
    a {!map} is declared from a datasheet-like list of registers; reads
    of write-only registers (and vice versa) raise {!Access_violation};
    a {!field} is a bit range that the field accessors apply to a
    register by name, doing the shift/mask arithmetic so peripheral code
    never hand-rolls it.

    Peripherals attach [on_read]/[on_write] hooks to give registers
    hardware side effects (FIFO pops, operation starts). *)

exception Access_violation of string

type access = Read_only | Write_only | Read_write

type field
(** A bit-field within a register. *)

type reg
(** A 32-bit register. *)

type map
(** A peripheral's register file. *)

val field : offset:int -> width:int -> field
(** [offset] is the LSB position; [offset + width <= 32]. *)

val reg :
  ?reset:int ->
  ?on_read:(int -> int) ->
  ?on_write:(old:int -> int -> int) ->
  name:string ->
  offset:int ->
  access ->
  reg
(** Declare a register at byte [offset] within the peripheral.
    [on_read v] may transform the returned value (e.g. pop a FIFO);
    [on_write ~old v] returns the value actually stored and may trigger
    hardware actions. *)

val map : name:string -> base:int -> reg list -> map
(** Register offsets must be distinct. [base] is the bus address of the
    peripheral, used only for {!read_addr}/{!write_addr}. *)

(** {2 Whole-register access} *)

val read : map -> string -> int
(** By register name. Raises {!Access_violation} on write-only registers,
    [Not_found] on unknown names. *)

val write : map -> string -> int -> unit
(** Values are masked to 32 bits. Raises {!Access_violation} on read-only
    registers. *)

val read_addr : map -> int -> int
(** By bus address (must be 4-byte aligned within the map). *)

val write_addr : map -> int -> int -> unit

(** {2 Field access} *)

val get : map -> string -> field -> int
(** Extract a field from a register (applies the register's read rules). *)

val set : map -> string -> field -> int -> unit
(** Read-modify-write one field, leaving other bits unchanged. The value
    is masked to the field width. *)

val is_set : map -> string -> field -> bool
(** True if the field is non-zero. *)

(** {2 Raw backdoor for hardware models}

    Peripheral implementations (the "hardware side" of the register file)
    update status registers directly, bypassing software access rules —
    exactly what real hardware does. *)

val hw_set : map -> string -> int -> unit

val hw_set_field : map -> string -> field -> int -> unit
