(** The one codec for stored artifacts: board witnesses ([TCKSNP03]),
    flight artifacts ([TCKFLT02]), and the freezer sections and packed
    metrics images inside them.

    A frame is an 8-byte magic naming the artifact and its version; a
    section table (a count, then per section its length-prefixed name,
    payload length and payload MD5); then the payloads back to back.
    Integers are 64-bit little-endian. Decoding is total: every failure
    is an [Error] naming the section (or the frame header or section
    table) at fault, never an exception. *)

val add_int : Buffer.t -> int -> unit
val add_int64 : Buffer.t -> int64 -> unit

val add_string : Buffer.t -> string -> unit
(** Length, then the bytes. *)

val add_list : Buffer.t -> ('a -> unit) -> 'a list -> unit
(** A count, then each record: what {!list} reads. *)

val encode : ?buf:Buffer.t -> string -> (string * (Buffer.t -> unit)) list -> string
(** [encode magic sections]: a frame with this 8-byte magic (else
    [Invalid_argument]) and one section per (name, write) in order,
    [write] appending its payload. [buf], if given, is cleared and holds
    the payloads (pool one to avoid re-growing a buffer per frame). *)

(** A bounds-checked cursor over one payload. *)
type reader

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Abandon the decode run by {!parse} or {!read} with a diagnostic. *)

val int : reader -> int
val int64 : reader -> int64
val raw : reader -> int -> string
val string : reader -> string

val rest : reader -> string
(** Every byte left. *)

val list : reader -> min:int -> (reader -> 'a) -> 'a list
(** A count, then that many records, in order. The count is rejected
    when that many records of at least [min] bytes cannot fit in the
    bytes left. *)

val parse : string -> (reader -> 'a) -> ('a, string) result
(** Run a decoder over a whole string; it must read all of it. *)

type t
(** A frame whose magic, table and digests all checked out. *)

val decode : magic:string -> sections:string list -> string -> (t, string) result
(** Checks, before any payload is parsed: the magic; the table's
    bounds; that each section is one of [sections], at most once and in
    their order (which must be present is up to the reader); that the
    lengths add up to exactly the bytes present; every digest. *)

val mem : t -> string -> bool

val read : t -> string -> (reader -> 'a) -> ('a, string) result
(** Run a decoder over one section's payload; it must read all of it. *)
