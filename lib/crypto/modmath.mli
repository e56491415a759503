(** Overflow-safe modular arithmetic on native ints up to 62 bits.

    Multiplication uses binary (peasant) doubling so intermediate values
    never exceed [2 * m], which fits comfortably in OCaml's 63-bit native
    int for the moduli used here. This is the arithmetic substrate for the
    toy Schnorr signature scheme. *)

val p61 : int
(** The Mersenne prime 2^61 - 1. *)

val add : m:int -> int -> int -> int
(** [add ~m a b] for [0 <= a, b < m < 2^62]. *)

val mul : m:int -> int -> int -> int
(** Peasant multiplication; O(log b) additions. *)

val pow : m:int -> int -> int -> int
(** [pow ~m base e] with [e >= 0]. *)

val inv : m:int -> int -> int
(** Modular inverse by extended Euclid. Raises [Invalid_argument] if the
    argument is not invertible mod [m]. *)
