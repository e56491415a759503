(** HMAC-SHA256 (RFC 2104), built on {!Sha256}.

    Used by the simulated HMAC hardware engine, the app-credential checker,
    and the 2FA example app. *)

type t
(** A streaming MAC context. *)

type key
(** A prepared key: the SHA-256 midstates after absorbing the padded key
    xor ipad and xor opad. A MAC started from it skips the key
    normalisation and those two compressions, so a short message costs
    two compressions instead of four. Immutable: any number of MACs may
    start from one, in turn or at once. *)

val prepare : bytes -> key
(** Normalise the key (keys longer than 64 bytes are hashed first, per
    RFC 2104) and compute its two midstates. Later changes to the bytes
    do not reach the prepared key. *)

val start : key -> t
(** Start a MAC computation under a prepared key. *)

val feed : t -> bytes -> off:int -> len:int -> unit

val finalize : t -> bytes
(** Return the 32-byte tag. The context must not be reused. *)

val mac_bytes : key:bytes -> bytes -> bytes
(** One-shot MAC. *)

val mac_string : key:bytes -> string -> bytes

val verify : key:bytes -> msg:bytes -> tag:bytes -> bool
(** Constant-time-style tag comparison (full scan regardless of mismatch
    position). *)
