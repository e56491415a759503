type t = { mutable state : int64 }

let create ~seed = { state = seed }

(* SplitMix64 (Steele, Lea, Flood 2014). *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t ~bound =
  assert (bound > 0);
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

let float t =
  (* 53 high bits give a uniform double in [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let split t = { state = next_int64 t }

let state t = t.state

let set_state t s = t.state <- s
