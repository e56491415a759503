(** LED syscall driver (driver 0x2): command 0 = count, 1 = on(i),
    2 = off(i), 3 = toggle(i). Stateless (no grant). *)

type t

val create : leds:Tock.Hil.gpio_pin array -> active_high:bool -> t

val driver : t -> Tock.Driver.t
