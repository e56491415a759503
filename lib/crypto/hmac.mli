(** HMAC-SHA256 (RFC 2104), built on {!Sha256}.

    Used by the simulated HMAC hardware engine, the app-credential checker,
    and the 2FA example app. *)

type t
(** A streaming MAC context. *)

val init : key:bytes -> t
(** Start a MAC computation. Keys longer than 64 bytes are hashed first,
    per RFC 2104. *)

val feed : t -> bytes -> off:int -> len:int -> unit

val finalize : t -> bytes
(** Return the 32-byte tag. The context must not be reused. *)

val mac_bytes : key:bytes -> bytes -> bytes
(** One-shot MAC. *)

val mac_string : key:bytes -> string -> bytes

val verify : key:bytes -> msg:bytes -> tag:bytes -> bool
(** Constant-time-style tag comparison (full scan regardless of mismatch
    position). *)
