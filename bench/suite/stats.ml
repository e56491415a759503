(* Rep-level summaries. Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method),
   so the spread printed here is the spread a reader recomputes from the
   per-rep values in a result file. *)

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
  values : float list;  (* in rep order *)
}

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median_of a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs = median_of (sorted xs)

let quartiles a =
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let summarize values =
  let a = sorted values in
  let n = Array.length a in
  let q1, q3 = quartiles a in
  {
    median = median_of a;
    q1;
    q3;
    min = (if n = 0 then Float.nan else a.(0));
    max = (if n = 0 then Float.nan else a.(n - 1));
    n;
    values;
  }

(* Interquartile distance as a share of the median. *)
let spread s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

(* Nearest-rank percentile of an already sorted sample. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let to_json unit s =
  Json.Obj
    [
      ("unit", Json.Str unit);
      ("median", Json.Num s.median);
      ("q1", Json.Num s.q1);
      ("q3", Json.Num s.q3);
      ("min", Json.Num s.min);
      ("max", Json.Num s.max);
      ("n", Json.Num (float_of_int s.n));
      ("values", Json.Arr (List.map (fun v -> Json.Num v) s.values));
    ]

let of_json j = summarize (List.map Json.to_num (Json.to_list (Json.member "values" j)))
