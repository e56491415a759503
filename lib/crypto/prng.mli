(** Deterministic pseudo-random number generator (SplitMix64).

    Used everywhere the simulation needs randomness (radio loss, TRNG
    peripheral entropy, key generation for the toy signature scheme) so that
    whole-system runs are reproducible from a single seed. Not
    cryptographically secure; the simulated TRNG peripheral models timing,
    not entropy quality. *)

type t

val create : seed:int64 -> t
(** [create ~seed] makes an independent generator. Two generators with the
    same seed produce identical streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] draws uniformly from [0, bound). [bound] must be > 0. *)

val float : t -> float
(** Uniform in [0, 1). *)

val split : t -> t
(** [split t] derives a statistically independent generator and advances
    [t]; useful for giving subsystems their own streams. *)

val state : t -> int64
(** The raw generator state; together with {!set_state} this lets a
    board snapshot capture and re-establish the exact stream position. *)

val set_state : t -> int64 -> unit
