(* The measurement harness of the datapath, iopath, obs and fleet
   benches: every timing, allocation count, gate and BENCH_*.json file
   they produce goes through here, so two numbers for one primitive come
   from one method.

   - [passes] runs [min iters 1000] warm-up calls, then 3 timed passes of
     [iters] calls on CLOCK_MONOTONIC, and keeps every pass as ns per op.
     [time_pair] times the two sides of a ratio gate the same way, one
     pass of each in turn.
     A sample's headline [ns_per_op] is its best pass: the host is shared
     and frequency-scaled, and the minimum is the stable estimate of the
     achievable cost. Its JSON also carries n, median, q1 and q3 of the
     passes, summarised by the repository benchmark's own [Stats].
   - [words] counts minor-heap words over n calls, [direct_major_words]
     the words they allocate straight in the major heap.
   - A gate is data: a value, a comparison, a limit, and whether it is
     host-independent ([Always]) or holds only at full iteration counts
     ([Full_only]). [finish] evaluates every gate together, so one failure
     hides no other; renders samples and gates through [Json], parses the
     text back and checks that every gate survived; writes
     BENCH_<bench>.json in full mode; and exits 1 naming every failed
     gate. *)

(* CLOCK_MONOTONIC in ns through bechamel's stub, the clock bench/suite
   reads; declared unboxed so a reading allocates nothing. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

let reps = 3

let warmup iters = min iters 1_000

let warm iters f =
  for _ = 1 to warmup iters do
    f ()
  done

(* ns per op of one timed pass of [iters] calls. *)
let pass iters f =
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  float_of_int (now_ns () - t0) /. float_of_int iters

(* Calls made (warm-up included) and ns per op of each timed pass. *)
let passes iters f =
  warm iters f;
  let per_op = Array.make reps 0. in
  for r = 0 to reps - 1 do
    per_op.(r) <- pass iters f
  done;
  (warmup iters + (reps * iters), Array.to_list per_op)

(* Minor-heap words allocated by [n] calls of [f]. *)
let words n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

(* Words [n] calls of [f] allocate straight in the major heap: major
   words minus those promoted from the minor heap, so the count does
   not depend on when minor collections run. *)
let direct_major_words n f =
  let _, p0, m0 = Gc.counters () in
  for _ = 1 to n do
    f ()
  done;
  let _, p1, m1 = Gc.counters () in
  m1 -. m0 -. (p1 -. p0)

type sample = {
  name : string;
  iters : int;  (* calls per timed pass *)
  calls : int;  (* every call made, warm-up included *)
  stats : Stats.summary;  (* ns per op over the passes *)
  fields : (string * Json.t) list;
}

type op = Le | Ge | Gt | Eq
type gate_mode = Always | Full_only

type gate = {
  name : string;
  value : float;
  op : op;
  limit : float;
  mode : gate_mode;
}

type t = {
  bench : string;
  full : bool;
  mutable samples : sample list;
  mutable gates : gate list;
}

let create ~full bench = { bench; full; samples = []; gates = [] }

let ns_per_op (s : sample) = s.stats.Stats.min

let add h ?(fields = []) name ~iters ~calls per_op =
  let s = { name; iters; calls; stats = Stats.summarize per_op; fields } in
  h.samples <- s :: h.samples;
  Printf.printf "   %-30s %12.2f ns/op  (median %.2f, q1 %.2f, q3 %.2f, n %d)\n%!"
    name (ns_per_op s) s.stats.Stats.median s.stats.Stats.q1 s.stats.Stats.q3
    s.stats.Stats.n;
  s

let time h ?fields name iters f =
  let calls, per_op = passes iters f in
  add h ?fields name ~iters ~calls per_op

(* The two sides of a ratio gate, each [(name, iters, f)]: a warm-up of
   each, then [rounds] timed passes of each, one of [a] and one of [b]
   in turn, so a slow phase of the host lands on both sides rather than
   one. Adds and returns both samples. *)
let time_pair h ~rounds (name_a, iters_a, a) (name_b, iters_b, b) =
  warm iters_a a;
  warm iters_b b;
  let per_a = Array.make rounds 0. and per_b = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    per_a.(r) <- pass iters_a a;
    per_b.(r) <- pass iters_b b
  done;
  let sample name iters per =
    add h name ~iters ~calls:(warmup iters + (rounds * iters)) (Array.to_list per)
  in
  let sa = sample name_a iters_a per_a in
  (sa, sample name_b iters_b per_b)

let gate h ?(mode = Always) name value op limit =
  h.gates <- { name; value; op; limit; mode } :: h.gates

let op_string = function Le -> "<=" | Ge -> ">=" | Gt -> ">" | Eq -> "="

let holds g =
  match g.op with
  | Le -> g.value <= g.limit
  | Ge -> g.value >= g.limit
  | Gt -> g.value > g.limit
  | Eq -> g.value = g.limit

(* [None] for a full-mode gate in a smoke run. *)
let verdict h g = if h.full || g.mode = Always then Some (holds g) else None

let int n = Json.Num (float_of_int n)

let sample_json (s : sample) =
  Json.Obj
    ([ ("name", Json.Str s.name); ("ns_per_op", Json.Num (ns_per_op s));
       ("iters", int s.iters); ("calls", int s.calls) ]
    @ Json.to_obj (Stats.to_json "ns/op" s.stats)
    @ s.fields)

let gate_json h g =
  Json.Obj
    [
      ("name", Json.Str g.name);
      ("value", Json.Num g.value);
      ("op", Json.Str (op_string g.op));
      ("limit", Json.Num g.limit);
      ("mode", Json.Str (match g.mode with Always -> "always" | Full_only -> "full"));
      ("pass", match verdict h g with Some b -> Json.Bool b | None -> Json.Null);
    ]

(* A non-finite value renders as null. *)
let survives v = function
  | Json.Num f -> Float.equal f v
  | Json.Null -> not (Float.is_finite v)
  | _ -> false

let check_round_trip h gates text =
  let back = Json.to_list (Json.member "gates" (Json.of_string text)) in
  if List.length back <> List.length gates then
    failwith (h.bench ^ ": gate count changed in the JSON round trip");
  List.iter2
    (fun g j ->
      if
        Json.to_str (Json.member "name" j) <> g.name
        || (not (survives g.value (Json.member "value" j)))
        || not (survives g.limit (Json.member "limit" j))
      then failwith (Printf.sprintf "%s: gate %s changed in the JSON round trip" h.bench g.name))
    gates back

let finish h ?(facts = []) () =
  let gates = List.rev h.gates in
  let json =
    Json.Obj
      ([ ("bench", Json.Str h.bench); ("mode", Json.Str (if h.full then "full" else "smoke")) ]
      @ facts
      @ [
          ("samples", Json.Arr (List.rev_map sample_json h.samples));
          ("gates", Json.Arr (List.map (gate_json h) gates));
        ])
  in
  check_round_trip h gates (Json.to_string json);
  List.iter
    (fun g ->
      Printf.printf "   gate %-50s %12.6g %-2s %-12.6g %s\n" g.name g.value
        (op_string g.op) g.limit
        (match verdict h g with
        | Some true -> "PASS"
        | Some false -> "FAIL"
        | None -> "(full mode only)"))
    gates;
  let failed = List.filter (fun g -> verdict h g = Some false) gates in
  let evaluated = List.filter (fun g -> verdict h g <> None) gates in
  Printf.printf "   %s gates: %d/%d passed\n" h.bench
    (List.length evaluated - List.length failed)
    (List.length evaluated);
  if h.full then begin
    let path = Printf.sprintf "BENCH_%s.json" h.bench in
    Json.write_file path json;
    Printf.printf "   wrote %s\n" path
  end;
  if failed <> [] then begin
    Printf.printf "   %s: FAIL: %s\n%!" h.bench
      (String.concat ", " (List.map (fun g -> g.name) failed));
    exit 1
  end;
  print_newline ()
