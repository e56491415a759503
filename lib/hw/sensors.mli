(** Environmental sensor models wired to the I2C bus.

    Signpost-style boards carry temperature, pressure, light, and
    acceleration sensors (paper §2). Each sensor answers the standard
    register protocol — write a register index, then read the measurement
    bytes — and derives its reading from a synthetic environment function
    of simulated time so tests are deterministic but non-constant.

    Readings are 16-bit signed values in centi-units (e.g. 2350 =
    23.50 °C). *)

type env = {
  temperature_cc : int -> int;  (** centi-°C as a function of cycle time *)
  pressure_pa : int -> int;     (** Pa offset from 100 kPa *)
  light_lux : int -> int;
  accel_mg : int -> int * int * int;  (** milli-g per axis *)
}

val default_env : clock_hz:int -> env
(** A gentle diurnal temperature curve, weather-ish pressure noise, a
    day/night light square wave, and small accelerometer jitter. *)

type kind = Temperature | Pressure | Light | Accel

val i2c_addr : kind -> int
(** Conventional bus addresses: 0x48, 0x60, 0x29, 0x1D. *)

val attach : Sim.t -> I2c.t -> env -> kind -> unit
(** Register the sensor on the bus. Protocol: write [[0x00]] to select the
    data register, read 2 bytes (6 for [Accel]) big-endian. *)
