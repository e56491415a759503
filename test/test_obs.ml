(* The observability layer: histogram bucketing invariants (qcheck),
   trace ring drop accounting, Chrome trace-event JSON well-formedness
   (parsed back with the mini JSON reader in Helpers), fleet metric-merge
   determinism across domain counts, and the Kernel.stats compatibility
   view. *)

open! Helpers

module Metrics = Tock_obs.Metrics
module Trace = Tock_obs.Trace
module Fleet = Tock_fleet.Fleet

(* ---- metrics: registry basics ---- *)

let test_registry_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter r "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  (* idempotent by name: same series *)
  let c' = Metrics.counter r "a.count" in
  Metrics.incr c';
  Alcotest.(check int) "shared series" 6 (Metrics.counter_value c);
  let g = Metrics.gauge r "a.gauge" in
  Metrics.set g 42;
  Alcotest.(check int) "gauge" 42 (Metrics.gauge_value g);
  (* type clash rejected *)
  Alcotest.(check bool) "type clash" true
    (try
       ignore (Metrics.gauge r "a.count");
       false
     with Invalid_argument _ -> true);
  match Metrics.snapshot r with
  | [ ("a.count", Metrics.Counter 6); ("a.gauge", Metrics.Gauge 42) ] -> ()
  | snap -> Alcotest.failf "unexpected snapshot: %s" (Metrics.render_text snap)

(* ---- histograms ---- *)

(* The log2 loop [bucket_index] replaced: one shift per loop turn. *)
let bucket_by_loop v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      incr i;
      v := !v lsr 1
    done;
    min !i (Metrics.buckets - 1)
  end

(* 0, negatives, max_int and every 2^k and 2^k - 1, then random ints. *)
let bucket_edges =
  0 :: -1 :: min_int :: max_int
  :: List.concat_map (fun k -> [ 1 lsl k; (1 lsl k) - 1 ]) (List.init 63 Fun.id)

let test_bucket_edges () =
  Alcotest.(check int) "v=0" 0 (Metrics.bucket_index 0);
  Alcotest.(check int) "v<0" 0 (Metrics.bucket_index (-7));
  Alcotest.(check int) "v=1" 1 (Metrics.bucket_index 1);
  Alcotest.(check int) "v=2" 2 (Metrics.bucket_index 2);
  Alcotest.(check int) "v=3" 2 (Metrics.bucket_index 3);
  Alcotest.(check int) "v=4" 3 (Metrics.bucket_index 4);
  (* OCaml ints are 63-bit: max_int = 2^62 - 1 lands in bucket 62; the
     64th bucket is the clamp for a hypothetical wider int. *)
  Alcotest.(check int) "v=max_int" 62 (Metrics.bucket_index max_int);
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) (bucket_by_loop v) (Metrics.bucket_index v))
    bucket_edges;
  Alcotest.(check int) "lb 1" 1 (Metrics.bucket_lower_bound 1);
  Alcotest.(check int) "lb 4" 8 (Metrics.bucket_lower_bound 4)

let qcheck_bucket_matches_loop =
  qcheck ~count:2000 "bucket_index matches the shift loop"
    QCheck2.Gen.(frequency [ (1, oneofl bucket_edges); (2, int); (1, small_signed_int) ])
    (fun v -> Metrics.bucket_index v = bucket_by_loop v)

let qcheck_bucket_containment =
  qcheck "bucket_index places v within its bucket's bounds"
    QCheck2.Gen.(map (fun i -> abs i) int)
    (fun v ->
      let b = Metrics.bucket_index v in
      b >= 0
      && b < Metrics.buckets
      && (v <= 0 || Metrics.bucket_lower_bound b <= v)
      && (b = 0
         || b >= Metrics.buckets - 1
         (* 1 lsl 62 overflows: the next bound isn't representable *)
         || Metrics.bucket_lower_bound (b + 1) <= 0
         || v < Metrics.bucket_lower_bound (b + 1)))

let qcheck_bucket_monotone =
  qcheck "bucket_index is monotone"
    QCheck2.Gen.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Metrics.bucket_index lo <= Metrics.bucket_index hi)

let qcheck_histogram_invariants =
  qcheck "histogram count/sum/bucket-total invariants"
    QCheck2.Gen.(list_size (int_bound 200) small_signed_int)
    (fun vs ->
      let r = Metrics.create () in
      let h = Metrics.histogram r "h" in
      List.iter (Metrics.observe h) vs;
      match Metrics.snapshot r with
      | [ ("h", Metrics.Histogram hs) ] ->
          hs.Metrics.hs_count = List.length vs
          && hs.Metrics.hs_sum = List.fold_left ( + ) 0 vs
          && Array.fold_left ( + ) 0 hs.Metrics.hs_buckets
             = hs.Metrics.hs_count
      | _ -> false)

let qcheck_quantile_monotone =
  qcheck "quantile is monotone in q"
    QCheck2.Gen.(
      pair
        (list_size (int_bound 100) (int_bound 10_000))
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (vs, (q1, q2)) ->
      let r = Metrics.create () in
      let h = Metrics.histogram r "h" in
      List.iter (Metrics.observe h) vs;
      match Metrics.snapshot r with
      | [ ("h", Metrics.Histogram hs) ] ->
          let lo = min q1 q2 and hi = max q1 q2 in
          Metrics.quantile hs lo <= Metrics.quantile hs hi
      | _ -> false)

let test_merge_sums () =
  let mk n =
    let r = Metrics.create () in
    let c = Metrics.counter r "c" in
    Metrics.add c n;
    let h = Metrics.histogram r "h" in
    Metrics.observe h n;
    Metrics.snapshot r
  in
  match Metrics.merge [ mk 3; mk 5 ] with
  | [ ("c", Metrics.Counter 8); ("h", Metrics.Histogram hs) ] ->
      Alcotest.(check int) "hist count" 2 hs.Metrics.hs_count;
      Alcotest.(check int) "hist sum" 8 hs.Metrics.hs_sum
  | snap -> Alcotest.failf "unexpected merge: %s" (Metrics.render_text snap)

(* ---- merge-kernel equivalence (qcheck) ----

   Random metric sets over a fixed name/kind universe (kinds must agree
   across snapshots for a merge to be well-typed): pairwise merge,
   streaming accumulation, a two-way tree merge, and the packed-input
   merge must all produce the identical snapshot — the associativity
   contract the fleet's streaming per-domain merge rests on. *)

let gen_metric_specs =
  (* Each snapshot: up to 12 (series index, value) events; each fleet:
     0..6 snapshots. Kind is a pure function of the index. *)
  QCheck2.Gen.(
    list_size (int_bound 6)
      (list_size (int_bound 12) (pair (int_bound 8) (int_bound 1_000))))

let snapshot_of_spec spec =
  let r = Metrics.create () in
  List.iter
    (fun (idx, v) ->
      let name = Printf.sprintf "series.%d" idx in
      match idx mod 3 with
      | 0 -> Metrics.add (Metrics.counter r name) v
      | 1 -> Metrics.set (Metrics.gauge r name) v
      | _ -> Metrics.observe (Metrics.histogram r name) v)
    spec;
  Metrics.snapshot r

let qcheck_merge_kernel_equivalence =
  qcheck "pairwise == streaming == tree == packed merge" gen_metric_specs
    (fun specs ->
      let snaps = List.map snapshot_of_spec specs in
      let reference = Metrics.merge snaps in
      let streaming =
        let a = Metrics.Accum.create () in
        List.iter (Metrics.Accum.add a) snaps;
        Metrics.Accum.to_snapshot a
      in
      let tree =
        (* Accumulate halves independently, then absorb — the fleet's
           per-domain-then-cross-domain shape. *)
        let k = List.length snaps / 2 in
        let left = Metrics.Accum.create () in
        let right = Metrics.Accum.create () in
        List.iteri
          (fun i s -> Metrics.Accum.add (if i < k then left else right) s)
          snaps;
        Metrics.Accum.absorb ~into:left right;
        Metrics.Accum.to_snapshot left
      in
      let packed = Metrics.merge_packed (List.map Metrics.pack snaps) in
      reference = streaming && reference = tree && Ok reference = packed)

let qcheck_pack_roundtrip =
  qcheck "pack/unpack round-trips any snapshot" gen_metric_specs
    (fun specs ->
      List.for_all
        (fun spec ->
          let snap = snapshot_of_spec spec in
          Metrics.unpack (Metrics.pack snap) = Ok snap)
        specs)

let test_packed_of_matches_snapshot () =
  (* packed_of (the registry's sealed layout) and pack (sorted
     snapshot order) meet at the same packed value; unpacking recovers
     the snapshot exactly. *)
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "z.count") 7;
  Metrics.set (Metrics.gauge r "a.gauge") 41;
  let h = Metrics.histogram r "m.lat" in
  List.iter (Metrics.observe h) [ 1; 1; 9; 400 ];
  let snap = Metrics.snapshot r in
  let p = Metrics.packed_of r in
  Alcotest.(check bool) "packed_of = pack . snapshot" true
    (p = Metrics.pack snap);
  Alcotest.(check bool) "unpack . packed_of = snapshot" true
    (Metrics.unpack p = Ok snap);
  Alcotest.(check bool) "binary encoding is stable" true
    (packed_image p = packed_image (Metrics.pack snap))

(* ---- sealed layouts (qcheck) ----

   A registry's layout is interned by registration sequence and sealed
   on first pack, so packing must agree with the name-sorted snapshot
   whatever happened to the registry: random names and kinds,
   re-registrations, and series registered from inside a snapshot
   hook. Equal series sets share one physical schema, whatever the
   registration order and however two domains interleave building the
   same fresh layout, and a blob restores by layout into any registry
   built the same way. *)

type reg_op =
  | Reg of int  (* register series [i] (again, perhaps) *)
  | Bump of int * int  (* register series [i], then record a value *)
  | Hook of int  (* a snapshot hook that registers series [i] *)

let gen_layout_case =
  QCheck2.Gen.(
    pair
      (array_size (return 10) (oneofl [ 'c'; 'g'; 'h' ]))
      (list_size (int_bound 40)
         (frequency
            [
              (4, map (fun i -> Reg i) (int_bound 9));
              (4, map2 (fun i v -> Bump (i, v)) (int_bound 9) (int_bound 5_000));
              (1, map (fun i -> Hook i) (int_bound 9));
            ])))

(* A fresh name space per case, so the trie sees new layouts every
   time, not just the ones earlier cases already interned. *)
let layout_case = Atomic.make 0

let series_name case i = Printf.sprintf "lay%d.s%d" case i

let register r kind name =
  match kind with
  | 'c' -> ignore (Metrics.counter r name)
  | 'g' -> ignore (Metrics.gauge r name)
  | _ -> ignore (Metrics.histogram r name)

(* Build a registry from a case's operations in name space [ns]. *)
let build_layout ns (kinds, ops) =
  let name = series_name ns in
  let r = Metrics.create () in
  List.iter
    (function
      | Reg i -> register r kinds.(i) (name i)
      | Bump (i, v) -> (
          match kinds.(i) with
          | 'c' -> Metrics.add (Metrics.counter r (name i)) v
          | 'g' -> Metrics.set (Metrics.gauge r (name i)) v
          | _ -> Metrics.observe (Metrics.histogram r (name i)) v)
      | Hook i ->
          (* idempotent, so every snapshot and pack sees the same values *)
          Metrics.on_snapshot r (fun () ->
              register r kinds.(i) (name i);
              if kinds.(i) = 'g' then
                Metrics.set (Metrics.gauge r (name i)) (7 * i)))
    ops;
  r

let run_layout_ops case =
  build_layout (Atomic.fetch_and_add layout_case 1) case

let qcheck_packed_of_is_pack_of_snapshot =
  qcheck "packed_of = pack . snapshot over random registrations"
    gen_layout_case (fun case ->
      let r = run_layout_ops case in
      let p = Metrics.packed_of r in
      let snap = Metrics.snapshot r in
      let q = Metrics.pack snap in
      p = q
      && packed_image p = packed_image q
      && Metrics.unpack p = Ok snap)

let qcheck_equal_sets_share_schema =
  qcheck "equal series sets share one physical schema" gen_layout_case
    (fun case ->
      let r = run_layout_ops case in
      let sc = (Metrics.packed_of r).Metrics.p_schema in
      (* the same set, registered in reverse sorted order *)
      let r' = Metrics.create () in
      for rank = Array.length sc.Metrics.sc_names - 1 downto 0 do
        register r' sc.Metrics.sc_kinds.[rank] sc.Metrics.sc_names.(rank)
      done;
      (* the same names with other kinds: another layout, another schema *)
      let other = function 'c' -> 'g' | 'g' -> 'h' | _ -> 'c' in
      let r'' = Metrics.create () in
      Array.iteri
        (fun rank name -> register r'' (other sc.Metrics.sc_kinds.[rank]) name)
        sc.Metrics.sc_names;
      (Metrics.packed_of r').Metrics.p_schema == sc
      && (Metrics.packed_of r'').Metrics.p_schema.Metrics.sc_kinds
         = String.map other sc.Metrics.sc_kinds)

let qcheck_domains_share_schema =
  qcheck ~count:30 "two domains building one fresh layout share its schema"
    QCheck2.Gen.(
      list_size (int_range 1 30)
        (pair (int_bound 1_000) (oneofl [ 'c'; 'g'; 'h' ])))
    (fun seq ->
      let case = Atomic.fetch_and_add layout_case 1 in
      (* drop later duplicates: one kind per name *)
      let seq =
        List.fold_left
          (fun acc (i, k) -> if List.mem_assoc i acc then acc else (i, k) :: acc)
          [] seq
        |> List.rev
      in
      let build () =
        let r = Metrics.create () in
        List.iter (fun (i, k) -> register r k (series_name case i)) seq;
        (Metrics.packed_of r).Metrics.p_schema
      in
      let d1 = Domain.spawn build and d2 = Domain.spawn build in
      let s1 = Domain.join d1 and s2 = Domain.join d2 in
      s1 == s2 && s1 == build ())

(* Restore by layout, the thaw side of a witness: the blob of
   [packed_of r] restored into a fresh registry built by the same
   registration sequence (no values recorded) packs back to the same
   bytes, histogram tops included; a registry with another series set,
   or the same names with other kinds, refuses the blob and keeps its
   own values. *)
let qcheck_restore_by_layout =
  qcheck "restore by layout reproduces packed_of, refuses other layouts"
    gen_layout_case (fun ((kinds, ops) as case) ->
      let ns = Atomic.fetch_and_add layout_case 1 in
      let r = build_layout ns case in
      let p = Metrics.packed_of r in
      let digest = Metrics.layout_digest r in
      let unbumped =
        List.map (function Bump (i, _) -> Reg i | op -> op) ops
      in
      let fresh = build_layout ns (kinds, unbumped) in
      ignore (Metrics.packed_of fresh);
      let restored =
        Metrics.restore fresh ~digest p.Metrics.p_blob = Ok ()
        && String.equal (Metrics.packed_of fresh).Metrics.p_blob
             p.Metrics.p_blob
        && Metrics.snapshot fresh = Metrics.snapshot r
      in
      (* Record one more value everywhere: a histogram top left too low
         would drop buckets from the next pack. *)
      List.iter
        (fun reg ->
          Array.iteri
            (fun rank name ->
              if p.Metrics.p_schema.Metrics.sc_kinds.[rank] = 'h' then
                Metrics.observe (Metrics.histogram reg name) 3)
            p.Metrics.p_schema.Metrics.sc_names)
        [ r; fresh ];
      let tops =
        String.equal (Metrics.packed_of fresh).Metrics.p_blob
          (Metrics.packed_of r).Metrics.p_blob
      in
      let refuses other =
        let before = Metrics.packed_of other in
        Result.is_error (Metrics.restore other ~digest p.Metrics.p_blob)
        && Metrics.packed_of other = before
      in
      let extra = build_layout ns case in
      ignore (Metrics.counter extra (series_name ns 10));
      let names = p.Metrics.p_schema.Metrics.sc_names in
      let rekinded = Metrics.create () in
      Array.iteri
        (fun rank name ->
          register rekinded
            (match p.Metrics.p_schema.Metrics.sc_kinds.[rank] with
            | 'c' -> 'g'
            | 'g' -> 'h'
            | _ -> 'c')
            name)
        names;
      restored && tops && refuses extra
      && (Array.length names = 0 || refuses rekinded))

(* Registration follows the layout trie: a registry on a path the trie
   already holds appends each new series with no lookup, and only a
   miss looks its name up. Random sequences of counter, gauge and
   histogram registrations over a few names (so names repeat and kinds
   clash), some recording a value and some deferred to snapshot hooks,
   run twice in one fresh name space: first on a trie path nobody has
   walked, then along the path the first run left. Both runs return,
   at every step, the handle of the same earlier registration or the
   same [clash] a name-to-kind model predicts, and end with equal
   packed images, layout digests and snapshots. *)
type reg_step = { r_name : int; r_kind : char; r_act : [ `Reg | `Bump of int | `Hook ] }

let gen_reg_steps =
  QCheck2.Gen.(
    list_size (int_bound 60)
      (map3
         (fun r_name r_kind r_act -> { r_name; r_kind; r_act })
         (int_bound 7) (oneofl [ 'c'; 'g'; 'h' ])
         (frequency
            [ (4, return `Reg); (4, map (fun v -> `Bump v) (int_bound 5_000));
              (1, return `Hook) ])))

(* Run [steps] on a fresh registry in name space [ns]: per step, [`Clash]
   or the index of the first step that returned the same handle. *)
let run_reg_steps ns steps =
  let r = Metrics.create () in
  let name i = series_name ns i in
  let seen = ref [] in
  let same_as i pred =
    match List.find_opt (fun (_, h) -> pred h) !seen with
    | Some (j, _) -> `Handle j
    | None -> `Handle i
  in
  let outcomes =
    List.mapi
      (fun i st ->
        match st.r_act with
        | `Hook ->
            Metrics.on_snapshot r (fun () ->
                try register r st.r_kind (name st.r_name) with Invalid_argument _ -> ());
            `Hook
        | (`Reg | `Bump _) as act -> (
            let v = match act with `Bump v -> v | `Reg -> 0 in
            try
              let out, h =
                match st.r_kind with
                | 'c' ->
                    let c = Metrics.counter r (name st.r_name) in
                    Metrics.add c v;
                    (same_as i (function `C c' -> c' == c | _ -> false), `C c)
                | 'g' ->
                    let g = Metrics.gauge r (name st.r_name) in
                    if v > 0 then Metrics.set g v;
                    (same_as i (function `G g' -> g' == g | _ -> false), `G g)
                | _ ->
                    let h = Metrics.histogram r (name st.r_name) in
                    if v > 0 then Metrics.observe h v;
                    (same_as i (function `H h' -> h' == h | _ -> false), `H h)
              in
              if out = `Handle i then seen := (i, h) :: !seen;
              out
            with Invalid_argument _ -> `Clash))
      steps
  in
  let p = Metrics.packed_of r in
  (outcomes, p, packed_image p, Metrics.layout_digest r, Metrics.snapshot r)

(* The model: a name's first registration fixes its kind and handle. *)
let model_reg_steps steps =
  let first = Hashtbl.create 8 in
  List.mapi
    (fun i st ->
      match st.r_act with
      | `Hook -> `Hook
      | `Reg | `Bump _ -> (
          match Hashtbl.find_opt first st.r_name with
          | None ->
              Hashtbl.add first st.r_name (i, st.r_kind);
              `Handle i
          | Some (j, k) -> if k = st.r_kind then `Handle j else `Clash))
    steps

let qcheck_registration_follows_trie =
  qcheck "registration along a walked trie path = on a fresh one"
    gen_reg_steps (fun steps ->
      let ns = Atomic.fetch_and_add layout_case 1 in
      let out, p, img, digest, snap = run_reg_steps ns steps in
      let out', p', img', digest', snap' = run_reg_steps ns steps in
      out = model_reg_steps steps
      && out' = out
      && p'.Metrics.p_schema == p.Metrics.p_schema
      && String.equal img' img && String.equal digest' digest && snap' = snap)

(* Plan caches key on physical schemas and are bounded: fresh [pack]ed
   schemas, far more than the cache holds, still merge and roll up
   exactly like the interned ones [packed_of] returns. The two rollup
   cohorts have medians 20x apart, so an outlier pass that read one
   cohort's medians for the other would flag a whole cohort; only
   board 3 is an outlier. *)
let test_plan_caches_bounded () =
  let regs =
    List.init 100 (fun i ->
        let r = Metrics.create () in
        Metrics.add (Metrics.counter r "plan.c")
          (if i = 3 then 100_000 else if i mod 2 = 1 then 1000 + i else i);
        Metrics.set (Metrics.gauge r "plan.g") (2 * i);
        Metrics.observe (Metrics.histogram r "plan.h") (i * i);
        if i mod 3 = 0 then Metrics.incr (Metrics.counter r "plan.extra");
        r)
  in
  let interned = List.map Metrics.packed_of regs in
  let fresh = List.map (fun r -> Metrics.pack (Metrics.snapshot r)) regs in
  let merged ps =
    let a = Metrics.Accum.create () in
    List.iter (Metrics.Accum.add_packed a) ps;
    Metrics.render_json (Metrics.Accum.to_snapshot a)
  in
  let reference =
    Metrics.render_json (Metrics.merge (List.map Metrics.snapshot regs))
  in
  Alcotest.(check string) "interned merge" reference (merged interned);
  Alcotest.(check string) "fresh-schema merge" reference (merged fresh);
  let rollup ps =
    let roll = Tock_obs.Rollup.create ~cohorts:2 in
    List.iteri
      (fun i p -> Tock_obs.Rollup.add_packed roll ~cohort:(i mod 2) p)
      ps;
    roll
  in
  let report ps =
    let arr = Array.of_list ps in
    Tock_obs.Rollup.evaluate (rollup ps) ~slos:[]
      ~iter_boards:(fun f ->
        Array.iteri (fun i p -> f ~cohort:(i mod 2) ~board:i p) arr)
  in
  let outliers ps =
    List.map
      (fun o -> (o.Tock_obs.Rollup.ol_board, o.Tock_obs.Rollup.ol_metric))
      (report ps).Tock_obs.Rollup.rp_outliers
  in
  Alcotest.(check (list (pair int string))) "interned outliers"
    [ (3, "plan.c") ] (outliers interned);
  Alcotest.(check string) "fresh-schema rollup"
    (Tock_obs.Rollup.render_json (report interned))
    (Tock_obs.Rollup.render_json (report fresh));
  let total ps =
    Tock_obs.Rollup.stat_value (rollup ps) ~cohort:1 "plan.c"
      Tock_obs.Rollup.Total
  in
  (* odd boards: 49 x 1000 + (1 + 3 + ... + 99) - 3 + 100_000 *)
  Alcotest.(check (pair int int)) "rollup totals" (151_497, 151_497)
    (total interned, total fresh)

(* ---- packed codec hardening ----

   External packed bytes (park buffers, flight artifacts) must never
   crash the reader: every truncation and every single-byte flip comes
   back [Ok] or [Error] from the whole entry surface
   ([packed_of_string], [unpack], [validate_packed], [merge_packed]) —
   never an exception. *)

let test_packed_rejects_corruption () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "k.syscalls") 12345;
  Metrics.set (Metrics.gauge r "k.now") 777;
  let h = Metrics.histogram r "k.lat" in
  List.iter (Metrics.observe h) [ 1; 3; 9; 42; 9000 ];
  let p = Metrics.packed_of r in
  let good = packed_image p in
  let n = String.length good in
  (match Metrics.packed_of_string good with
  | Ok p' ->
      Alcotest.(check bool) "clean image round-trips" true
        (Metrics.unpack p' = Metrics.unpack p)
  | Error e -> Alcotest.failf "clean image rejected: %s" e);
  let total name f =
    (* the hardening contract: a result, never an exception; when the
       damaged image still parses, unpacking it must be total too *)
    match f () with
    | Ok damaged -> (
        match Metrics.unpack damaged with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s: unpack raised %s" name (Printexc.to_string e))
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: diagnostic not empty" name)
          true
          (String.length e > 0)
    | exception e ->
        Alcotest.failf "%s: raised %s instead of a result" name
          (Printexc.to_string e)
  in
  (* every truncation point *)
  for k = 0 to n - 1 do
    total
      (Printf.sprintf "truncated to %d bytes" k)
      (fun () -> Metrics.packed_of_string (String.sub good 0 k))
  done;
  Alcotest.(check bool) "empty image rejected" true
    (Result.is_error (Metrics.packed_of_string ""));
  Alcotest.(check bool) "half image rejected" true
    (Result.is_error (Metrics.packed_of_string (String.sub good 0 (n / 2))));
  (* every single-byte flip *)
  for i = 0 to n - 1 do
    let b = Bytes.of_string good in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
    total
      (Printf.sprintf "byte %d flipped" i)
      (fun () -> Metrics.packed_of_string (Bytes.to_string b))
  done;
  (* Length and offset fields near [max_int]: a bound written as
     [pos + n > len] wraps negative and lets the read through. The
     first series-name length sits right after the series count; the
     blob is the tail of the image, and a histogram's offset word is
     its rank's slot there. *)
  let set_word s at v =
    let b = Bytes.of_string s in
    Bytes.set_int64_le b at (Int64.of_int v);
    Bytes.to_string b
  in
  let must_reject name s =
    match Metrics.packed_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | exception e ->
        Alcotest.failf "%s: raised %s instead of Error" name
          (Printexc.to_string e)
  in
  must_reject "series-name length max_int-5" (set_word good 8 (max_int - 5));
  let blob_at = n - String.length p.Metrics.p_blob in
  let hist_at =
    blob_at + (8 * String.index p.Metrics.p_schema.Metrics.sc_kinds 'h')
  in
  must_reject "histogram offset max_int-2"
    (set_word good hist_at (max_int - 2));
  (* Offset [max_int] wraps the pair-count read round to blob word 1 (a
     gauge here): over a zero there the record looked empty and
     valid. *)
  must_reject "histogram offset max_int"
    (set_word (set_word good hist_at max_int) (blob_at + 8) 0);
  (* a typed-but-torn image: blob shorter than its schema demands *)
  let torn =
    { p with Metrics.p_blob = String.sub p.Metrics.p_blob 0 8 }
  in
  Alcotest.(check bool) "torn blob fails validation" true
    (Result.is_error (Metrics.validate_packed torn));
  Alcotest.(check bool) "torn blob fails unpack" true
    (Result.is_error (Metrics.unpack torn));
  (* merge_packed validates every input before folding any *)
  (match Metrics.merge_packed [ p; torn ] with
  | Error e ->
      Alcotest.(check bool) "merge diagnostic not empty" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "merge_packed accepted a torn image"
  | exception e ->
      Alcotest.failf "merge_packed raised %s" (Printexc.to_string e));
  match Metrics.merge_packed [ p; p ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "merge_packed rejected clean images: %s" e

let test_merge_type_clash () =
  let ra = Metrics.create () and rb = Metrics.create () in
  ignore (Metrics.counter ra "x");
  ignore (Metrics.gauge rb "x");
  Alcotest.(check bool) "clash rejected" true
    (try
       ignore (Metrics.merge [ Metrics.snapshot ra; Metrics.snapshot rb ]);
       false
     with Invalid_argument _ -> true)

let test_render_json_parses () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "k.syscalls") 17;
  Metrics.set (Metrics.gauge r "k.now") 123;
  let h = Metrics.histogram r "k.lat" in
  List.iter (Metrics.observe h) [ 1; 5; 150; 3000 ];
  let j = parse_json (Metrics.render_json (Metrics.snapshot r)) in
  Alcotest.(check int) "counter" 17
    (int_of_float (as_num (obj_get "k.syscalls" j)));
  let hist = obj_get "k.lat" j in
  Alcotest.(check int) "hist count" 4
    (int_of_float (as_num (obj_get "count" hist)));
  Alcotest.(check int) "hist sum" 3156
    (int_of_float (as_num (obj_get "sum" hist)));
  (* Names are input from outside the program (a TBF package name
     names its process's series): a quote, a control byte and UTF-8
     bytes must come back as they went in. *)
  let odd =
    [ "process.say \"hi\".syscalls"; "process.tab\001.x"; "process.caf\xc3\xa9.upcalls" ]
  in
  let r = Metrics.create () in
  List.iteri (fun i name -> Metrics.add (Metrics.counter r name) (i + 1)) odd;
  let j = parse_json (Metrics.render_json (Metrics.snapshot r)) in
  List.iteri
    (fun i name ->
      Alcotest.(check int) (String.escaped name) (i + 1)
        (int_of_float (as_num (obj_get name j))))
    odd

(* ---- trace ring ---- *)

let test_trace_drops () =
  let tr = Trace.create ~capacity:4 in
  for i = 1 to 10 do
    Trace.emit tr ~ts:i ~tid:(-1) Trace.Note Trace.Instant ~arg:0
      ~text:(string_of_int i)
  done;
  Alcotest.(check int) "total" 10 (Trace.total tr);
  Alcotest.(check int) "retained" 4 (Trace.retained tr);
  Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
  let seen = ref [] in
  Trace.iter tr (fun e -> seen := e.Trace.e_ts :: !seen);
  Alcotest.(check (list int)) "oldest first, newest kept" [ 7; 8; 9; 10 ]
    (List.rev !seen)

let test_trace_disabled () =
  let tr = Trace.create ~capacity:0 in
  Trace.emit tr ~ts:1 ~tid:0 Trace.Syscall Trace.Begin ~arg:0 ~text:"";
  Alcotest.(check bool) "off" false (Trace.on tr);
  Alcotest.(check int) "nothing recorded" 0 (Trace.total tr)

(* ---- chrome export: well-formed, balanced, metadata-complete ---- *)

let test_chrome_json_roundtrip () =
  (* A real board run so the trace contains every event family. *)
  let sim = Tock_hw.Sim.create ~trace_capacity:8192 () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  ignore (add_app_exn board ~name:"counter"
            (Tock_userland.Apps.counter ~n:3 ~period_ticks:200));
  run_done board;
  let tr = Tock_hw.Sim.trace_events sim in
  Alcotest.(check bool) "events recorded" true (Trace.retained tr > 0);
  let json_s =
    Trace.to_chrome_json ~pid:0 ~process_name:"board"
      ~tid_names:[ (-1, "kernel") ]
      ~clock_hz:(Tock_hw.Sim.clock_hz sim)
      tr
  in
  let j = parse_json json_s in
  let events = as_arr (obj_get "traceEvents" j) in
  let other = obj_get "otherData" j in
  Alcotest.(check int) "dropped reported" (Trace.dropped tr)
    (int_of_float (as_num (obj_get "dropped_events" other)));
  Alcotest.(check int) "total reported" (Trace.total tr)
    (int_of_float (as_num (obj_get "total_events" other)));
  (* Every record has the required fields; ts never decreases (the
     exporter stable-sorts); B/E balance per tid, never going negative. *)
  let depth = Hashtbl.create 8 in
  let last_ts = ref neg_infinity in
  let n_data = ref 0 in
  List.iter
    (fun e ->
      let ph = as_str (obj_get "ph" e) in
      ignore (as_str (obj_get "name" e));
      let tid = int_of_float (as_num (obj_get "tid" e)) in
      Alcotest.(check bool) "tid shifted non-negative" true (tid >= 0);
      match ph with
      | "M" -> ()
      | "B" | "E" | "i" ->
          incr n_data;
          let ts = as_num (obj_get "ts" e) in
          Alcotest.(check bool) "sorted by ts" true (ts >= !last_ts);
          last_ts := ts;
          if ph = "i" then
            Alcotest.(check string) "instant scope" "t"
              (as_str (obj_get "s" e))
          else begin
            let d = try Hashtbl.find depth tid with Not_found -> 0 in
            let d = if ph = "B" then d + 1 else d - 1 in
            Alcotest.(check bool) "E never precedes B" true (d >= 0);
            Hashtbl.replace depth tid d
          end
      | other -> Alcotest.failf "unexpected phase %s" other)
    events;
  Alcotest.(check int) "all retained events exported" (Trace.retained tr)
    !n_data;
  Hashtbl.iter
    (fun tid d ->
      if d <> 0 then Alcotest.failf "tid %d: %d unclosed spans" tid d)
    depth

let test_text_timeline () =
  let sim = Tock_hw.Sim.create ~trace_capacity:64 () in
  let tr = Tock_hw.Sim.trace_events sim in
  Trace.note tr ~ts:(Tock_hw.Sim.now sim) "hello";
  let text = Trace.to_text ~clock_hz:(Tock_hw.Sim.clock_hz sim) tr in
  check_contains ~msg:"timeline" text "hello"

(* ---- notes on a board's ring: exact text and cycle, drops gauged ---- *)

let test_sim_note_compat () =
  let sim = Tock_hw.Sim.create ~trace_capacity:8 () in
  let tr = Tock_hw.Sim.trace_events sim in
  let note s = Trace.note tr ~ts:(Tock_hw.Sim.now sim) s in
  let dropped_gauge () =
    match
      List.assoc_opt "sim.trace_dropped"
        (Metrics.snapshot (Tock_hw.Sim.metrics sim))
    with
    | Some (Metrics.Gauge v) -> v
    | _ -> Alcotest.fail "no sim.trace_dropped gauge"
  in
  Tock_hw.Sim.spend sim 7;
  note "mark";
  let notes = ref [] in
  Trace.iter tr (fun e -> notes := (e.Trace.e_ts, Trace.label e) :: !notes);
  Alcotest.(check (list (pair int string))) "note kept" [ (7, "mark") ] !notes;
  Alcotest.(check int) "no drops yet" 0 (Trace.dropped tr);
  for i = 0 to 9 do
    note (string_of_int i)
  done;
  Alcotest.(check int) "drops counted" 3 (Trace.dropped tr);
  Alcotest.(check int) "drops gauged" 3 (dropped_gauge ())

(* ---- kernel registry and the stats compatibility view ---- *)

let test_kernel_stats_thin_view () =
  let board = make_board () in
  ignore (add_app_exn board ~name:"hello" Tock_userland.Apps.hello);
  run_done board;
  let kernel = board.Tock_boards.Board.kernel in
  let s = Tock.Kernel.stats kernel in
  let snap = Tock.Kernel.metrics_snapshot kernel in
  let counter name =
    match List.assoc_opt name snap with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "syscalls" (counter "kernel.syscalls")
    s.Tock.Kernel.syscalls;
  Alcotest.(check int) "switches" (counter "kernel.context_switches")
    s.Tock.Kernel.context_switches;
  Alcotest.(check int) "upcalls" (counter "kernel.upcalls_delivered")
    s.Tock.Kernel.upcalls_delivered;
  Alcotest.(check bool) "ran" true (s.Tock.Kernel.syscalls > 0);
  (* latency histograms populated for the classes hello exercises *)
  (match List.assoc_opt "kernel.syscall_cycles.command" snap with
  | Some (Metrics.Histogram hs) ->
      Alcotest.(check bool) "command latencies recorded" true
        (hs.Metrics.hs_count > 0)
  | _ -> Alcotest.fail "missing command latency histogram");
  (* per-process attribution present *)
  match List.assoc_opt "process.hello.cycles" snap with
  | Some (Metrics.Counter n) ->
      Alcotest.(check bool) "process cycles attributed" true (n > 0)
  | _ -> Alcotest.fail "missing process cycle counter"

let test_irq_latency_histogram () =
  let board = make_board () in
  ignore (add_app_exn board ~name:"counter"
            (Tock_userland.Apps.counter ~n:3 ~period_ticks:100));
  run_done board;
  let snap =
    Metrics.snapshot (Tock_hw.Sim.metrics board.Tock_boards.Board.sim)
  in
  match List.assoc_opt "irq.dispatch_cycles" snap with
  | Some (Metrics.Histogram hs) ->
      Alcotest.(check bool) "irqs serviced" true (hs.Metrics.hs_count > 0);
      Alcotest.(check bool) "latency non-negative" true (hs.Metrics.hs_sum >= 0)
  | _ -> Alcotest.fail "missing irq.dispatch_cycles"

(* ---- fleet aggregation: byte-identical at any domain count ---- *)

let test_fleet_merge_deterministic () =
  let cfg =
    { Fleet.default with Fleet.boards = 4; group_size = 1; cycles = 200_000 }
  in
  let render d =
    Metrics.render_json
      (Fleet.merged_metrics
         (Fleet.run_fleet { cfg with Fleet.domains = d }).Fleet.fr_stats)
  in
  let one = render 1 in
  Alcotest.(check string) "2 domains" one (render 2);
  Alcotest.(check string) "4 domains" one (render 4);
  check_contains ~msg:"has kernel series" one "kernel.syscalls";
  (* parses as JSON too *)
  ignore (parse_json one)

(* ---- fleet multi-lane Perfetto export ---- *)

let test_fleet_trace_export () =
  let cfg =
    { Fleet.default with
      Fleet.boards = 4; domains = 2; group_size = 1; cycles = 200_000;
      trace_capacity = 4096; trace_boards = 2 }
  in
  let r = Fleet.run_fleet cfg in
  (* tracing is pure observation: results match the untraced run *)
  Alcotest.(check string) "tracing never changes results"
    (Metrics.render_json
       (Fleet.merged_metrics
          (Fleet.run_fleet { cfg with Fleet.trace_capacity = 0; trace_boards = 0 })
            .Fleet.fr_stats))
    (Metrics.render_json r.Fleet.fr_metrics);
  let json_s =
    match r.Fleet.fr_trace_json with
    | Some s -> s
    | None -> Alcotest.fail "fr_trace_json missing with tracing on"
  in
  let j = parse_json json_s in
  ignore (as_num (obj_get "clock_hz" (obj_get "otherData" j)));
  let events = as_arr (obj_get "traceEvents" j) in
  (* lane metadata: every pid named exactly once — domain lanes (pid =
     domain) and sampled board lanes (pid = domains + board) must never
     collide *)
  let pid_names = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if
        as_str (obj_get "ph" e) = "M"
        && as_str (obj_get "name" e) = "process_name"
      then begin
        let pid = int_of_float (as_num (obj_get "pid" e)) in
        (match Hashtbl.find_opt pid_names pid with
        | Some prior ->
            Alcotest.failf "pid %d named twice (%s)" pid prior
        | None -> ());
        Hashtbl.add pid_names pid (as_str (obj_get "name" (obj_get "args" e)))
      end)
    events;
  List.iter
    (fun (pid, name) ->
      match Hashtbl.find_opt pid_names pid with
      | Some n ->
          Alcotest.(check string) (Printf.sprintf "lane pid %d" pid) name n
      | None -> Alcotest.failf "lane pid %d missing" pid)
    [ (0, "domain 0"); (1, "domain 1"); (2, "board 0"); (3, "board 1") ];
  (* every data record well-formed; ts monotone within each lane; B/E
     balanced per (pid, tid) stack, never going negative *)
  let depth = Hashtbl.create 16 in
  let last_ts = Hashtbl.create 8 in
  let n_data = ref 0 in
  let domain_dispatches = ref 0 in
  let board_events = ref 0 in
  List.iter
    (fun e ->
      let ph = as_str (obj_get "ph" e) in
      let pid = int_of_float (as_num (obj_get "pid" e)) in
      let tid = int_of_float (as_num (obj_get "tid" e)) in
      Alcotest.(check bool) "tid shifted non-negative" true (tid >= 0);
      if ph <> "M" then begin
        incr n_data;
        if pid < 2 && as_str (obj_get "cat" e) = "dispatch" then
          incr domain_dispatches;
        if pid >= 2 then incr board_events;
        let ts = as_num (obj_get "ts" e) in
        let prev =
          Option.value ~default:neg_infinity (Hashtbl.find_opt last_ts pid)
        in
        Alcotest.(check bool)
          (Printf.sprintf "lane %d sorted by ts" pid)
          true (ts >= prev);
        Hashtbl.replace last_ts pid ts
      end;
      match ph with
      | "M" -> ()
      | "i" ->
          Alcotest.(check string) "instant scope" "t" (as_str (obj_get "s" e))
      | "X" ->
          Alcotest.(check bool) "complete has a duration" true
            (as_num (obj_get "dur" e) >= 0.)
      | "B" | "E" ->
          let key = (pid, tid) in
          let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
          let d = if ph = "B" then d + 1 else d - 1 in
          if d < 0 then Alcotest.failf "pid %d tid %d: E before B" pid tid;
          Hashtbl.replace depth key d
      | other -> Alcotest.failf "unexpected phase %s" other)
    events;
  Hashtbl.iter
    (fun (pid, tid) d ->
      if d <> 0 then
        Alcotest.failf "pid %d tid %d: %d unclosed spans" pid tid d)
    depth;
  Alcotest.(check bool) "data events exported" true (!n_data > 0);
  Alcotest.(check bool) "domain lanes carry dispatch quanta" true
    (!domain_dispatches > 0);
  Alcotest.(check bool) "sampled board lanes carry events" true
    (!board_events > 0);
  Alcotest.(check (pair int int)) "lane count reported" (2, 2)
    r.Fleet.fr_trace_lanes

let suite =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    qcheck_bucket_matches_loop;
    qcheck_bucket_containment;
    qcheck_bucket_monotone;
    qcheck_histogram_invariants;
    qcheck_quantile_monotone;
    Alcotest.test_case "merge sums" `Quick test_merge_sums;
    qcheck_merge_kernel_equivalence;
    qcheck_pack_roundtrip;
    Alcotest.test_case "packed_of matches snapshot" `Quick
      test_packed_of_matches_snapshot;
    qcheck_packed_of_is_pack_of_snapshot;
    qcheck_equal_sets_share_schema;
    qcheck_domains_share_schema;
    qcheck_restore_by_layout;
    qcheck_registration_follows_trie;
    Alcotest.test_case "plan caches bounded" `Quick test_plan_caches_bounded;
    Alcotest.test_case "packed codec rejects corruption" `Quick
      test_packed_rejects_corruption;
    Alcotest.test_case "merge type clash" `Quick test_merge_type_clash;
    Alcotest.test_case "render_json parses" `Quick test_render_json_parses;
    Alcotest.test_case "trace ring drop accounting" `Quick test_trace_drops;
    Alcotest.test_case "trace disabled is free" `Quick test_trace_disabled;
    Alcotest.test_case "chrome JSON round-trip" `Quick
      test_chrome_json_roundtrip;
    Alcotest.test_case "text timeline" `Quick test_text_timeline;
    Alcotest.test_case "legacy Sim notes" `Quick test_sim_note_compat;
    Alcotest.test_case "Kernel.stats is a thin view" `Quick
      test_kernel_stats_thin_view;
    Alcotest.test_case "irq latency histogram" `Quick
      test_irq_latency_histogram;
    Alcotest.test_case "fleet merge deterministic" `Quick
      test_fleet_merge_deterministic;
    Alcotest.test_case "fleet Perfetto export parses back" `Quick
      test_fleet_trace_export;
  ]
