(** A library of userspace applications used by the examples, tests, and
    benchmarks — the simulation analogue of the apps in tock/libtock-c.

    Each app is a function over its {!Emu.app} handle; {!to_factory}
    adapts one into the loader/kernel [factory], and {!registry} builds a
    {!Tock.Process_loader.lookup} from named apps. *)

(* otock-lint: allow userland-kernel-internals — the factory adapter is
   the one seam where an app function is handed to the kernel; only the
   opaque Process.t/execution types cross it. *)
val to_factory : (Emu.app -> unit) -> Tock.Process.t -> Tock.Process.execution

(* otock-lint: allow userland-kernel-internals — same seam: a lookup
   table the trusted loader consumes; apps never call through it. *)
val registry : (string * (Emu.app -> unit)) list -> Tock.Process_loader.lookup

(** {2 Apps} *)

val hello : Emu.app -> unit
(** Prints one greeting and exits. *)

val counter : n:int -> period_ticks:int -> Emu.app -> unit
(** Prints [n] numbered lines, sleeping between them, then exits. *)

val blink : led:int -> period_ticks:int -> blinks:int -> Emu.app -> unit

val sensor_logger : samples:int -> period_ticks:int -> Emu.app -> unit
(** Duty-cycled temperature logger: sample, print, sleep. The Signpost
    workload shape (paper §2). *)

val radio_beacon : frames:int -> period_ticks:int -> Emu.app -> unit
(** Broadcasts periodic sensor readings. *)

val radio_sink : expect:int -> Emu.app -> unit
(** Listens and prints received frames until [expect] arrived. *)

val hmac_token : challenges:int -> Emu.app -> unit
(** 2FA-style token: IPC service answering challenges with
    HMAC(key, challenge); the key lives in the app's flash image and is
    shared with the kernel via allow-readonly (paper §3.3.3). *)

val hmac_token_requester : service:string -> challenges:int -> Emu.app -> unit

val u2f_token : challenges:int -> Emu.app -> unit
(** Like {!hmac_token}, but requires a button press (user presence, as on
    a U2F key) before answering each challenge. *)

val fault_injector : delay_ticks:int -> Emu.app -> unit
(** Sleeps, then dereferences memory outside its MPU regions. *)

val memory_hog : Emu.app -> unit
(** Grows its break until the kernel refuses, then keeps running. Proves
    exhaustion is confined to its own block (paper §2.4). *)

val spinner : Emu.app -> unit
(** Burns CPU forever in [work] chunks (scheduler/preemption tests). *)

val kv_user : rounds:int -> Emu.app -> unit
(** Exercises the KV store: set/get/delete cycles, verifying roundtrips. *)

val token_key : bytes
(** The key embedded in the token's binary. *)

val make_token_binary : unit -> bytes
(** Binary payload for the [hmac_token] TBF: key at
    [token_flash_key_offset]. *)
