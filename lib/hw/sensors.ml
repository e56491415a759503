type env = {
  temperature_cc : int -> int;
  pressure_pa : int -> int;
  light_lux : int -> int;
  accel_mg : int -> int * int * int;
}

let default_env ~clock_hz =
  let seconds now = now / clock_hz in
  {
    temperature_cc =
      (fun now ->
        (* 20 °C +/- 5 °C over a 120 s "day", plus a deci-second ripple so
           short runs still see variation. *)
        let s = seconds now in
        let ds = now / (clock_hz / 10) in
        let phase = float_of_int (s mod 120) /. 120. *. 2. *. Float.pi in
        2000 + int_of_float (500. *. sin phase) + (ds mod 7));
    pressure_pa =
      (fun now ->
        let s = seconds now in
        1013 + ((s * 13) mod 29) - 14);
    light_lux =
      (fun now ->
        let s = seconds now in
        if s mod 120 < 60 then 800 + (s mod 11) else 3 + (s mod 2));
    accel_mg =
      (fun now ->
        let s = seconds now in
        ((s * 7 mod 21) - 10, (s * 11 mod 21) - 10, 1000 + (s mod 5)));
  }

type kind = Temperature | Pressure | Light | Accel

let i2c_addr = function
  | Temperature -> 0x48
  | Pressure -> 0x60
  | Light -> 0x29
  | Accel -> 0x1D

let be16 v =
  let v = v land 0xFFFF in
  Bytes.init 2 (fun i -> Char.chr ((v lsr ((1 - i) * 8)) land 0xff))

let attach sim bus env kind =
  let selected = ref 0 in
  let on_write data =
    if Bytes.length data >= 1 then selected := Char.code (Bytes.get data 0)
  in
  let on_read n =
    let now = Sim.now sim in
    let payload =
      match kind with
      | Temperature -> be16 (env.temperature_cc now)
      | Pressure -> be16 (env.pressure_pa now)
      | Light -> be16 (env.light_lux now)
      | Accel ->
          let x, y, z = env.accel_mg now in
          Bytes.concat Bytes.empty [ be16 x; be16 y; be16 z ]
    in
    (* Pad or truncate to the requested length, like reading past the end
       of a sensor's register file. *)
    if Bytes.length payload >= n then Bytes.sub payload 0 n
    else Bytes.cat payload (Bytes.make (n - Bytes.length payload) '\x00')
  in
  I2c.add_device bus ~addr:(i2c_addr kind) ~on_write ~on_read
