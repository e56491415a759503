(** Tock Binary Format (TBF): the container for process binaries.

    Follows the real format's structure (TRD: version 2): a fixed base
    header (version, header size, total size, flags, XOR checksum)
    followed by TLV elements, then the application binary, then optional
    *footers* carrying credentials — the integrity/authenticity records
    that the asynchronous process loader checks before an app may run
    (paper §3.4).

    The integrity region covered by credentials is [0, binary_end) of the
    stored image: the header and the binary, but not the footers
    themselves (they could not cover themselves). [parse] is the one
    reader of stored bytes: it hands back the stored image and the binary
    end it validated, so a credential is checked over exactly the bytes
    it was computed over, unknown TLVs included.

    In this reproduction the "binary" payload is opaque bytes naming an
    app in the userland registry plus ballast, so loading, checksumming,
    credential verification, and flash placement all operate on real bytes
    even though execution is an OCaml closure. *)

type tlv =
  | Main of { init_fn_offset : int; protected_size : int; minimum_ram_size : int }
  | Program of {
      init_fn_offset : int;
      protected_size : int;
      minimum_ram_size : int;
      binary_end_offset : int;
      app_version : int;
    }
  | Package_name of string
  | Kernel_version of { major : int; minor : int }
  | Permissions of (int * int) list
      (** (driver number, allowed command-number bitmask) pairs *)
  | Storage_permissions of { write_id : int; read_ids : int list }
      (** persistent-storage ACL: this app writes under [write_id] and may
          read regions owned by any id in [read_ids] (its own implied) *)

type credential =
  | Sha256_digest of bytes  (** 32-byte digest of the integrity region *)
  | Hmac_cred of { key_id : int; tag : bytes }
  | Schnorr_cred of { pubkey : bytes; signature : bytes }
  | Padding of int  (** reserved space, in bytes *)

type t = {
  version : int;
  flags : int;
  elements : tlv list;
  binary : bytes;
  footers : credential list;
  footer_space : int;
      (** Bytes reserved for footers. Fixed at construction so that adding
          credentials never changes the header's total size (which lives
          inside the integrity region — real TBF reserves footer space up
          front for the same reason). *)
}

val flag_enabled : int
(** Bit 0: the app should be started after loading. *)

val flag_sticky : int
(** Bit 1: the app survives "erase all" process-management operations. *)

(** {2 Construction} *)

val make :
  ?flags:int ->
  ?min_ram:int ->
  ?permissions:(int * int) list ->
  ?storage:int * int list ->
  ?footer_space:int ->
  name:string ->
  binary:bytes ->
  unit ->
  t
(** Build an unsigned TBF with a [Program] element (app version 0),
    [Package_name] and a [Kernel_version] of 2.0. Default flags:
    enabled. Default [min_ram]: 2048. Default
    [footer_space]: 128 bytes (enough for one of each credential). Raises
    [Invalid_argument] if credentials later overflow the reserve. *)

val add_sha256 : t -> t
(** Append a SHA-256 digest credential, computed over the first
    [binary_end] bytes of [serialize t]; [add_hmac] and [add_schnorr]
    cover the same bytes. *)

val add_hmac : t -> key_id:int -> key:bytes -> t

val add_schnorr :
  t -> sk:Tock_crypto.Schnorr.secret_key -> rng:Tock_crypto.Prng.t -> t

(** {2 Serialization} *)

val serialize : t -> bytes
(** Render to bytes with a correct checksum. Total size is padded to a
    4-byte boundary. *)

(** {2 Parsing} *)

type parse_error =
  | Truncated
  | Bad_version of int
  | Bad_checksum
  | Bad_tlv of string
  | Missing_program

type image = {
  tbf : t;
  off : int;  (** where the image starts in the parsed region *)
  stored : bytes;
      (** the bytes the header's total size spans, as stored, unknown
          TLVs and all: what a loaded process's flash holds *)
  integrity_end : int;
      (** the binary end the header declares, checked to lie within
          [stored]: credentials cover [stored]'s first [integrity_end]
          bytes *)
}

val parse : bytes -> off:int -> (image, parse_error) result
(** Parse one TBF at [off]. Unknown header TLVs are skipped (forward
    compatible) but stay in [stored]; the next app starts at
    [off + Bytes.length stored]. *)

val parse_all : bytes -> image list * parse_error option
(** Walk a flash region of concatenated TBFs from offset 0; stops cleanly
    at erased flash (0xFF) or zero padding. Returns the images in flash
    order and the error that stopped the walk, if any. *)

val pp_error : Format.formatter -> parse_error -> unit

(** {2 Accessors} *)

val package_name : t -> string option

val minimum_ram : t -> int

val enabled : t -> bool

val permissions : t -> (int * int) list option
(** [None] = no permissions element = all drivers allowed (Tock's
    default-open historical behaviour). *)

val storage_permissions : t -> (int * int list) option
