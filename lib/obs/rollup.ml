(* Cross-board health rollups: fold each board's packed metrics into
   per-metric distributions *across boards*, per cohort.

   The fleet runner retires boards in whatever order domains finish, so
   everything here is commutative: each metric's cross-board
   distribution is a log2 histogram (reusing Metrics' bucket machinery)
   plus exact min/max/sum/count — all of which add element-wise, so
   per-domain partial rollups tree-merged with [absorb] render the same
   report as one sequential pass. Memory is O(metrics x cohorts),
   independent of board count: a 100k-board fleet costs the same few
   kilobytes as a 16-board one.

   Outlier detection needs the *final* per-cohort medians, so it runs as
   a deterministic second pass ([evaluate]'s [iter_boards]) over the
   retained per-board packed stats, in board order. *)

type dist = {
  mutable d_n : int;
  mutable d_sum : int;
  mutable d_min : int;
  mutable d_max : int;
  d_buckets : int array; (* length Metrics.buckets; log2 of per-board values *)
}

type cohort = {
  mutable co_boards : int;
  co_dists : (string, dist) Hashtbl.t;
  co_plans : dist array Metrics.Schema_cache.t;
      (* schema -> dist per rank: every schema the cohort has seen
         (radio groups retire one per node kind), so retiring a board
         is an array walk with no name lookups *)
}

type t = { r_cohorts : cohort array }

let create ~cohorts =
  if cohorts <= 0 then invalid_arg "Rollup.create: cohorts <= 0";
  {
    r_cohorts =
      Array.init cohorts (fun _ ->
          { co_boards = 0; co_dists = Hashtbl.create 64;
            co_plans = Metrics.Schema_cache.create () });
  }

let cohorts t = Array.length t.r_cohorts

let boards t = Array.fold_left (fun a c -> a + c.co_boards) 0 t.r_cohorts

let dist_for co name =
  match Hashtbl.find_opt co.co_dists name with
  | Some d -> d
  | None ->
      let d =
        { d_n = 0; d_sum = 0; d_min = max_int; d_max = min_int;
          d_buckets = Array.make Metrics.buckets 0 }
      in
      Hashtbl.add co.co_dists name d;
      d

let observe_dist d v =
  d.d_n <- d.d_n + 1;
  d.d_sum <- d.d_sum + v;
  if v < d.d_min then d.d_min <- v;
  if v > d.d_max then d.d_max <- v;
  let b = Metrics.bucket_index v in
  d.d_buckets.(b) <- d.d_buckets.(b) + 1

(* The cohort's dist for each rank of a schema, resolved by name once. *)
let plan_for co (s : Metrics.schema) =
  match Metrics.Schema_cache.find co.co_plans s with
  | plan -> plan
  | exception Not_found ->
      let plan = Array.map (dist_for co) s.Metrics.sc_names in
      Metrics.Schema_cache.add co.co_plans s plan;
      plan

(* One board retires: every counter and gauge contributes its value,
   every histogram contributes its observation count (the rollup asks
   "how many syscalls did each board make", not "how long was each").
   A seen schema allocates nothing: a walk over the plan and the blob
   words, rank by rank. *)
let add_packed t ~cohort p =
  let co = t.r_cohorts.(cohort) in
  co.co_boards <- co.co_boards + 1;
  let plan = plan_for co p.Metrics.p_schema in
  for rank = 0 to Array.length plan - 1 do
    observe_dist plan.(rank) (Metrics.packed_scalar p rank)
  done

let absorb ~into src =
  if Array.length into.r_cohorts <> Array.length src.r_cohorts then
    invalid_arg "Rollup.absorb: cohort counts differ";
  Array.iteri
    (fun i sco ->
      let dco = into.r_cohorts.(i) in
      dco.co_boards <- dco.co_boards + sco.co_boards;
      Hashtbl.iter
        (fun name sd ->
          let dd = dist_for dco name in
          dd.d_n <- dd.d_n + sd.d_n;
          dd.d_sum <- dd.d_sum + sd.d_sum;
          if sd.d_min < dd.d_min then dd.d_min <- sd.d_min;
          if sd.d_max > dd.d_max then dd.d_max <- sd.d_max;
          Array.iteri
            (fun b n -> dd.d_buckets.(b) <- dd.d_buckets.(b) + n)
            sd.d_buckets)
        sco.co_dists)
    src.r_cohorts

(* ---- statistics ---- *)

type stat = P50 | P99 | Max | Mean | Total

let stat_name = function
  | P50 -> "p50"
  | P99 -> "p99"
  | Max -> "max"
  | Mean -> "mean"
  | Total -> "total"

let dist_stat d stat =
  if d.d_n = 0 then 0
  else
    match stat with
    | Max -> d.d_max
    | Total -> d.d_sum
    | Mean -> d.d_sum / d.d_n
    | P50 | P99 ->
        let q = if stat = P50 then 0.5 else 0.99 in
        let v =
          Metrics.quantile
            { Metrics.hs_count = d.d_n; hs_sum = d.d_sum;
              hs_buckets = d.d_buckets }
            q
        in
        (* quantile reports the bucket's upper bound (max_int from the
           top bucket); the observed max is a tighter one. *)
        min v d.d_max

let stat_value t ~cohort name stat =
  match Hashtbl.find_opt t.r_cohorts.(cohort).co_dists name with
  | None -> 0
  | Some d -> dist_stat d stat

(* ---- SLO evaluation ---- *)

type verdict = Healthy | Degraded | Unhealthy

let verdict_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Unhealthy -> "unhealthy"

let worst a b =
  match (a, b) with
  | Unhealthy, _ | _, Unhealthy -> Unhealthy
  | Degraded, _ | _, Degraded -> Degraded
  | Healthy, Healthy -> Healthy

type slo = {
  slo_metric : string;
  slo_stat : stat;
  slo_warn : int;
  slo_fail : int;
}

type check = {
  ck_cohort : int;
  ck_metric : string;
  ck_stat : stat;
  ck_boards : int;
  ck_value : int;
  ck_warn : int;
  ck_fail : int;
  ck_verdict : verdict;
}

type outlier = {
  ol_board : int;
  ol_cohort : int;
  ol_metric : string;
  ol_value : int;
  ol_median : int;
}

type report = {
  rp_boards : int;
  rp_checks : check list;
  rp_outliers : outlier list;
  rp_verdict : verdict;
}

(* A board is an outlier on a metric at [outlier_k] times its cohort's
   median, and only at or above [outlier_floor], a noise floor for
   near-zero medians. *)
let outlier_k = 8

let outlier_floor = 64

let evaluate t ~slos ~iter_boards =
  let checks =
    List.concat_map
      (fun s ->
        List.init (cohorts t) (fun c ->
            let v = stat_value t ~cohort:c s.slo_metric s.slo_stat in
            let verdict =
              if v > s.slo_fail then Unhealthy
              else if v > s.slo_warn then Degraded
              else Healthy
            in
            { ck_cohort = c; ck_metric = s.slo_metric; ck_stat = s.slo_stat;
              ck_boards = t.r_cohorts.(c).co_boards; ck_value = v;
              ck_warn = s.slo_warn; ck_fail = s.slo_fail;
              ck_verdict = verdict }))
      slos
  in
  let outliers = ref [] in
  (* Distributions are frozen during the outlier pass, so each cohort's
     per-metric medians are computed once per packed schema, not once
     per board. *)
  let median_plans =
    Array.map (fun _ -> Metrics.Schema_cache.create ()) t.r_cohorts
  in
  iter_boards (fun ~cohort ~board p ->
      let s = p.Metrics.p_schema in
      let plan =
        match Metrics.Schema_cache.find median_plans.(cohort) s with
        | plan -> plan
        | exception Not_found ->
            let co = t.r_cohorts.(cohort) in
            let plan =
              Array.map
                (fun name ->
                  match Hashtbl.find_opt co.co_dists name with
                  | None -> None
                  | Some d -> Some (dist_stat d P50))
                s.Metrics.sc_names
            in
            Metrics.Schema_cache.add median_plans.(cohort) s plan;
            plan
      in
      for rank = 0 to Array.length plan - 1 do
        let v = Metrics.packed_scalar p rank in
        if v >= outlier_floor then
          match plan.(rank) with
          | None -> ()
          | Some median ->
              if v >= outlier_k * max median 1 then
                outliers :=
                  { ol_board = board; ol_cohort = cohort;
                    ol_metric = s.Metrics.sc_names.(rank); ol_value = v;
                    ol_median = median }
                  :: !outliers
      done);
  let rp_outliers = List.rev !outliers in
  let rp_verdict =
    List.fold_left (fun a c -> worst a c.ck_verdict) Healthy checks
  in
  { rp_boards = boards t; rp_checks = checks; rp_outliers; rp_verdict }

(* ---- renderers ---- *)

let render_text r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "fleet health: %s  (%d boards, %d checks, %d outliers)\n"
       (String.uppercase_ascii (verdict_name r.rp_verdict))
       r.rp_boards
       (List.length r.rp_checks)
       (List.length r.rp_outliers));
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf
           "  [%-9s] cohort %d  %s(%s) = %d  (%d boards, warn > %d, fail > \
            %d)\n"
           (verdict_name c.ck_verdict) c.ck_cohort (stat_name c.ck_stat)
           c.ck_metric c.ck_value c.ck_boards c.ck_warn c.ck_fail))
    r.rp_checks;
  List.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf "  outlier board %d (cohort %d): %s = %d vs median %d\n"
           o.ol_board o.ol_cohort o.ol_metric o.ol_value o.ol_median))
    r.rp_outliers;
  Buffer.contents buf

let render_json r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"verdict\": \"%s\",\n  \"boards\": %d,\n"
       (verdict_name r.rp_verdict) r.rp_boards);
  Buffer.add_string buf "  \"checks\": [";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"cohort\": %d, \"metric\": \"%s\", \"stat\": \"%s\", \
            \"boards\": %d, \"value\": %d, \"warn\": %d, \"fail\": %d, \
            \"verdict\": \"%s\"}"
           c.ck_cohort (Trace.escape c.ck_metric) (stat_name c.ck_stat)
           c.ck_boards c.ck_value c.ck_warn c.ck_fail
           (verdict_name c.ck_verdict)))
    r.rp_checks;
  Buffer.add_string buf "\n  ],\n  \"outliers\": [";
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"board\": %d, \"cohort\": %d, \"metric\": \"%s\", \
            \"value\": %d, \"median\": %d}"
           o.ol_board o.ol_cohort (Trace.escape o.ol_metric) o.ol_value
           o.ol_median))
    r.rp_outliers;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
