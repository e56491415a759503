let p61 = 0x1FFFFFFFFFFFFFFF (* 2^61 - 1 *)

let add ~m a b =
  let s = a + b in
  if s >= m then s - m else s

let mul ~m a b =
  let a = ref (a mod m) and b = ref b and r = ref 0 in
  while !b > 0 do
    if !b land 1 = 1 then r := add ~m !r !a;
    a := add ~m !a !a;
    b := !b lsr 1
  done;
  !r

let pow ~m base e =
  assert (e >= 0);
  let base = ref (base mod m) and e = ref e and r = ref 1 in
  while !e > 0 do
    if !e land 1 = 1 then r := mul ~m !r !base;
    base := mul ~m !base !base;
    e := !e lsr 1
  done;
  !r

let inv ~m a =
  (* Extended Euclid on (a, m); signed intermediates stay < m in
     magnitude. *)
  let rec go old_r r old_s s =
    if r = 0 then (old_r, old_s)
    else
      let q = old_r / r in
      go r (old_r - (q * r)) s (old_s - (q * s))
  in
  let g, x = go (a mod m) m 1 0 in
  if g <> 1 && g <> -1 then invalid_arg "Modmath.inv: not invertible";
  let x = if g = -1 then -x else x in
  ((x mod m) + m) mod m
