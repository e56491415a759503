(* The metrics registry: named counters, gauges, and log2-bucketed
   histograms, designed for hot-path recording.

   - Handles are resolved by name once, at registration time; the record
     operations ([incr]/[add]/[set]/[observe]) are plain field updates
     with no hashing, no allocation, and no branching beyond bounds.
   - Registration is idempotent by name, so independent subsystems that
     agree on a name share one series (used deliberately: the two boards
     of a radio group share their sim-level hardware counters).
   - Snapshots are deterministic: entries sorted by name, with values
     copied out, so a fleet of boards renders byte-identical output for
     identical work regardless of registration order or domain placement.

   Histograms bucket by log2: bucket 0 holds values <= 0, bucket b >= 1
   holds [2^(b-1), 2^b). 64 buckets cover the whole int range; cycle
   latencies at any plausible clock rate fit with room to spare. *)

let buckets = 64

type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : int }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  h_buckets : int array; (* length [buckets] *)
}

type metric = Mc of counter | Mg of gauge | Mh of histogram

type t = {
  by_name : (string, metric) Hashtbl.t;
  mutable sync_hooks : (unit -> unit) list; (* run (in registration order)
                                               before every snapshot *)
}

let create () = { by_name = Hashtbl.create 64; sync_hooks = [] }

let clash name = invalid_arg ("Metrics: " ^ name ^ " registered with another type")

let counter t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Mc c) -> c
  | Some _ -> clash name
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace t.by_name name (Mc c);
      c

let gauge t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Mg g) -> g
  | Some _ -> clash name
  | None ->
      let g = { g_name = name; g_value = 0 } in
      Hashtbl.replace t.by_name name (Mg g);
      g

let histogram t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Mh h) -> h
  | Some _ -> clash name
  | None ->
      let h =
        { h_name = name; h_count = 0; h_sum = 0; h_buckets = Array.make buckets 0 }
      in
      Hashtbl.replace t.by_name name (Mh h);
      h

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let counter_value c = c.c_value

let counter_name c = c.c_name

let set g v = g.g_value <- v

let set_max g v = if v > g.g_value then g.g_value <- v

let gauge_value g = g.g_value

let gauge_name g = g.g_name

let bucket_index v =
  if v <= 0 then 0
  else begin
    (* floor(log2 v) + 1, clamped: v=1 -> 1, v in [2^(b-1), 2^b) -> b. *)
    let i = ref 0 and v = ref v in
    while !v > 0 do
      i := !i + 1;
      v := !v lsr 1
    done;
    if !i > buckets - 1 then buckets - 1 else !i
  end

let bucket_lower_bound b =
  if b <= 0 then min_int else 1 lsl (b - 1)

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let b = bucket_index v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let histogram_count h = h.h_count

let histogram_sum h = h.h_sum

let histogram_name h = h.h_name

let on_snapshot t hook = t.sync_hooks <- t.sync_hooks @ [ hook ]

(* ---- snapshots ---- *)

type hist_snapshot = { hs_count : int; hs_sum : int; hs_buckets : int array }

type value = Counter of int | Gauge of int | Histogram of hist_snapshot

type snapshot = (string * value) list

let snapshot t =
  List.iter (fun hook -> hook ()) t.sync_hooks;
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | Mc c -> Counter c.c_value
        | Mg g -> Gauge g.g_value
        | Mh h ->
            Histogram
              { hs_count = h.h_count; hs_sum = h.h_sum;
                hs_buckets = Array.copy h.h_buckets }
      in
      (name, v) :: acc)
    t.by_name []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let quantile hs q =
  (* Upper bound of the bucket holding the q-quantile observation: exact
     enough for latency reporting (within 2x), monotone in q. *)
  if hs.hs_count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int hs.hs_count)) in
      if r < 1 then 1 else if r > hs.hs_count then hs.hs_count else r
    in
    let b = ref 0 and seen = ref 0 in
    (try
       for i = 0 to buckets - 1 do
         seen := !seen + hs.hs_buckets.(i);
         if !seen >= rank then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !b = 0 then 0
    else if !b >= buckets - 1 then max_int
    else (1 lsl !b) - 1
  end

(* ---- packed snapshots ----

   A snapshot as an assoc list costs ~10 kB of boxed heap per board —
   prohibitive retained state for 100k-board fleets. The packed form
   splits a snapshot into an immutable *schema* (sorted names + metric
   kinds), shared by every board whose registry registered the same
   series, and one flat byte blob private to the board: scalars
   (counter/gauge values, or word offsets into the histogram area) and
   a sparse histogram area (count, sum, pair count, then non-empty
   (bucket, n) pairs per histogram), all int64-LE words. The blob is a
   string, so the major GC never scans it: a fleet retaining 100k of
   these pays ~a dozen marked words per board, not ~150 — re-marking
   retained stats was the dominant cost of large single-process fleets
   (wall time at 40k boards dropped ~3x when the arrays became
   no-scan).

   Schemas and the iteration-order pack plans are pooled in a global
   mutex-guarded table: a fleet of identical boards shares one schema
   object (the "registry name table", hoisted fleet-level) and pays the
   name sort exactly once. Packing is therefore a cache hit plus two
   array-fill passes per board. Equal registries pack to structurally
   equal values whatever the domain interleaving: the layout is a pure
   function of (sorted names, kinds, values). *)

type schema = {
  sc_names : string array; (* sorted ascending *)
  sc_kinds : string;       (* 'c' | 'g' | 'h' per sorted entry *)
}

type packed = {
  p_schema : schema;
  p_blob : string;
      (* int64-LE words, no-scan. Words [0, n): per sorted entry, the
         counter/gauge value or the absolute word offset of its
         histogram record. Words [n, ...): histogram area — per
         histogram, at its offset: count; sum; npairs; then npairs
         (bucket index, bucket count) pairs in ascending bucket order *)
}

let blob_word p i = Int64.to_int (String.get_int64_le p.p_blob (8 * i))

let kind_char = function Mc _ -> 'c' | Mg _ -> 'g' | Mh _ -> 'h'

(* A pack plan: the schema plus the registry-iteration-order -> sorted
   rank mapping, keyed by the names+kinds in iteration order. Identical
   board recipes register identically, so a whole fleet resolves to a
   handful of plans. The table is cross-domain shared state: guarded. *)
type pack_plan = {
  pl_schema : schema;
  pl_order : int array; (* pl_order.(rank) = index in iteration order *)
}

let plans_mutex = Mutex.create ()

(* otock-lint: allow domain-safety the only access path is [plan_for], whose lookup/insert runs entirely under [Mutex.protect plans_mutex]; stored plans are immutable once built *)
let plans : (string, pack_plan) Hashtbl.t = Hashtbl.create 16

let make_plan names kinds_it =
  let n = Array.length names in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare names.(a) names.(b)) order;
  let sc_names = Array.map (fun i -> names.(i)) order in
  let sc_kinds = String.init n (fun rank -> kinds_it.(order.(rank))) in
  { pl_schema = { sc_names; sc_kinds }; pl_order = order }

let plan_for names kinds_it =
  let key =
    let b = Buffer.create 1024 in
    Array.iteri
      (fun i nm ->
        Buffer.add_string b nm;
        Buffer.add_char b kinds_it.(i);
        Buffer.add_char b '\x00')
      names;
    Buffer.contents b
  in
  Mutex.protect plans_mutex (fun () ->
      match Hashtbl.find_opt plans key with
      | Some p -> p
      | None ->
          let p = make_plan names kinds_it in
          Hashtbl.replace plans key p;
          p)

let hist_pairs h_buckets =
  let nz = ref 0 in
  Array.iter (fun v -> if v <> 0 then Stdlib.incr nz) h_buckets;
  !nz

let packed_of t =
  List.iter (fun hook -> hook ()) t.sync_hooks;
  let n = Hashtbl.length t.by_name in
  let names = Array.make n "" in
  let ms = Array.make n (Mc { c_name = ""; c_value = 0 }) in
  let kinds_it = Array.make n 'c' in
  let i = ref 0 in
  Hashtbl.iter
    (fun name m ->
      names.(!i) <- name;
      ms.(!i) <- m;
      kinds_it.(!i) <- kind_char m;
      Stdlib.incr i)
    t.by_name;
  let plan = plan_for names kinds_it in
  let order = plan.pl_order in
  (* Histogram area size, walking in rank order so offsets are a pure
     function of the sorted layout. *)
  let hist_words = ref 0 in
  Array.iter
    (fun it ->
      match ms.(it) with
      | Mh h -> hist_words := !hist_words + 3 + (2 * hist_pairs h.h_buckets)
      | _ -> ())
    order;
  let blob = Bytes.create (8 * (n + !hist_words)) in
  let set i v = Bytes.set_int64_le blob (8 * i) (Int64.of_int v) in
  let cursor = ref n in
  Array.iteri
    (fun rank it ->
      match ms.(it) with
      | Mc c -> set rank c.c_value
      | Mg g -> set rank g.g_value
      | Mh h ->
          let off = !cursor in
          set rank off;
          set off h.h_count;
          set (off + 1) h.h_sum;
          let np = ref 0 in
          let j = ref (off + 3) in
          Array.iteri
            (fun b v ->
              if v <> 0 then begin
                set !j b;
                set (!j + 1) v;
                j := !j + 2;
                Stdlib.incr np
              end)
            h.h_buckets;
          set (off + 2) !np;
          cursor := !j)
    order;
  { p_schema = plan.pl_schema; p_blob = Bytes.unsafe_to_string blob }

let pack snap =
  let n = List.length snap in
  let sc_names = Array.make n "" in
  let kinds = Bytes.make n 'c' in
  let hist_words =
    List.fold_left
      (fun acc (_, v) ->
        match v with
        | Histogram hs -> acc + 3 + (2 * hist_pairs hs.hs_buckets)
        | _ -> acc)
      0 snap
  in
  let blob = Bytes.create (8 * (n + hist_words)) in
  let set i v = Bytes.set_int64_le blob (8 * i) (Int64.of_int v) in
  let cursor = ref n in
  List.iteri
    (fun rank (name, v) ->
      sc_names.(rank) <- name;
      match v with
      | Counter c -> set rank c
      | Gauge g ->
          Bytes.set kinds rank 'g';
          set rank g
      | Histogram hs ->
          Bytes.set kinds rank 'h';
          let off = !cursor in
          set rank off;
          set off hs.hs_count;
          set (off + 1) hs.hs_sum;
          let np = ref 0 in
          let j = ref (off + 3) in
          Array.iteri
            (fun b n ->
              if n <> 0 then begin
                set !j b;
                set (!j + 1) n;
                j := !j + 2;
                Stdlib.incr np
              end)
            hs.hs_buckets;
          set (off + 2) !np;
          cursor := !j)
    snap;
  {
    p_schema = { sc_names; sc_kinds = Bytes.to_string kinds };
    p_blob = Bytes.unsafe_to_string blob;
  }

(* Structural validation of a packed image against its own schema:
   every word [unpack], [merge_packed] and [Accum.add_packed] will read
   must exist, every histogram record must lie inside the blob with
   in-range bucket indices. [packed_of]/[pack] construct images that
   pass by construction; images rebuilt from bytes (board witnesses,
   flight-recorder artifacts) may be truncated or bit-flipped, and the
   contract mirrors the TCKSNP02 witness hardening: [Error] with a
   diagnostic, never an exception. *)
let validate_packed p =
  let err fmt = Printf.ksprintf (fun m -> Error ("packed: " ^ m)) fmt in
  let sc = p.p_schema in
  let n = Array.length sc.sc_names in
  let words = String.length p.p_blob / 8 in
  if String.length sc.sc_kinds <> n then
    err "schema has %d names but %d kinds" n (String.length sc.sc_kinds)
  else if String.length p.p_blob mod 8 <> 0 || words < n then
    err "blob is %d bytes for %d series" (String.length p.p_blob) n
  else begin
    let bad = ref None in
    for rank = 0 to n - 1 do
      if !bad = None then
        match sc.sc_kinds.[rank] with
        | 'c' | 'g' -> ()
        | 'h' ->
            let off = blob_word p rank in
            if off < n || off > words - 3 then
              bad :=
                Some
                  (err "series %s: histogram offset %d out of range"
                     sc.sc_names.(rank) off)
            else
              let np = blob_word p (off + 2) in
              if np < 0 || np > buckets || off + 3 + (2 * np) > words then
                bad :=
                  Some
                    (err "series %s: %d histogram pairs out of range"
                       sc.sc_names.(rank) np)
              else
                for k = 0 to np - 1 do
                  let b = blob_word p (off + 3 + (2 * k)) in
                  if (b < 0 || b >= buckets) && !bad = None then
                    bad :=
                      Some
                        (err "series %s: bucket %d out of range"
                           sc.sc_names.(rank) b)
                done
        | k -> bad := Some (err "series %s: unknown kind %C" sc.sc_names.(rank) k)
    done;
    match !bad with Some e -> e | None -> Ok ()
  end

(* Unchecked per-series fold over a validated image: the allocation-free
   read path shared by the health-rollup engine. Histograms surface as
   their (count, sum) pair — the per-board scalar shape the cross-board
   distributions fold. *)
let iter_packed p ~counter ~gauge ~hist =
  let sc = p.p_schema in
  for rank = 0 to Array.length sc.sc_names - 1 do
    let name = sc.sc_names.(rank) in
    match sc.sc_kinds.[rank] with
    | 'c' -> counter name (blob_word p rank)
    | 'g' -> gauge name (blob_word p rank)
    | _ ->
        let off = blob_word p rank in
        hist name ~count:(blob_word p off) ~sum:(blob_word p (off + 1))
  done

let unpack p =
  match validate_packed p with
  | Error _ as e -> e
  | Ok () ->
      let sc = p.p_schema in
      let n = Array.length sc.sc_names in
      let rec go rank acc =
        if rank < 0 then acc
        else
          let v =
            match sc.sc_kinds.[rank] with
            | 'c' -> Counter (blob_word p rank)
            | 'g' -> Gauge (blob_word p rank)
            | _ ->
                let off = blob_word p rank in
                let hs_buckets = Array.make buckets 0 in
                let np = blob_word p (off + 2) in
                for k = 0 to np - 1 do
                  hs_buckets.(blob_word p (off + 3 + (2 * k))) <-
                    blob_word p (off + 3 + (2 * k) + 1)
                done;
                Histogram
                  {
                    hs_count = blob_word p off;
                    hs_sum = blob_word p (off + 1);
                    hs_buckets;
                  }
          in
          go (rank - 1) ((sc.sc_names.(rank), v) :: acc)
      in
      Ok (go (n - 1) [])

let packed_to_string p =
  let b = Buffer.create 1024 in
  let int63 v = Buffer.add_int64_le b (Int64.of_int v) in
  let sc = p.p_schema in
  let n = Array.length sc.sc_names in
  int63 n;
  for rank = 0 to n - 1 do
    int63 (String.length sc.sc_names.(rank));
    Buffer.add_string b sc.sc_names.(rank);
    Buffer.add_char b sc.sc_kinds.[rank]
  done;
  (* The blob already is the canonical int64-LE value image. *)
  Buffer.add_string b p.p_blob;
  Buffer.contents b

(* Decode a [packed_to_string] image. Every read is bounds-checked: the
   input may come from a truncated or corrupted board witness, and the
   contract there is [Error], never an exception. *)
let packed_of_string s =
  let len = String.length s in
  let err fmt = Printf.ksprintf (fun m -> Error ("packed: " ^ m)) fmt in
  let word pos =
    if pos < 0 || pos + 8 > len then None
    else Some (Int64.to_int (String.get_int64_le s pos))
  in
  match word 0 with
  | None -> err "truncated header (%d bytes)" len
  | Some n when n < 0 || n > len -> err "absurd series count %d" n
  | Some n -> (
      let sc_names = Array.make n "" in
      let kinds = Bytes.make n 'c' in
      let pos = ref 8 in
      match
        for rank = 0 to n - 1 do
          match word !pos with
          | Some nl when nl >= 0 && nl <= len - !pos - 9 ->
              sc_names.(rank) <- String.sub s (!pos + 8) nl;
              Bytes.set kinds rank s.[!pos + 8 + nl];
              pos := !pos + 8 + nl + 1
          | _ -> raise Exit
        done
      with
      | exception Exit -> err "truncated schema"
      | () -> (
          (* Kinds, blob size and histogram records: [validate_packed]. *)
          let p =
            {
              p_schema = { sc_names; sc_kinds = Bytes.to_string kinds };
              p_blob = String.sub s !pos (len - !pos);
            }
          in
          match validate_packed p with Ok () -> Ok p | Error e -> Error e))

(* Overwrite a registry's values from a packed image: the thaw path of
   board freeze/thaw. Series missing from the registry are created
   (snapshot hooks mint gauges lazily, so a freshly-built board has
   fewer series than its frozen image); a registry series absent from
   the image would keep a stale value, so that is an error. *)
let restore_packed t p =
  match validate_packed p with
  | Error e -> Error e
  | Ok () ->
  let sc = p.p_schema in
  let n = Array.length sc.sc_names in
  let bad = ref None in
  for rank = 0 to n - 1 do
    if !bad = None then begin
      let name = sc.sc_names.(rank) in
      match (sc.sc_kinds.[rank], Hashtbl.find_opt t.by_name name) with
      | 'c', Some (Mc c) -> c.c_value <- blob_word p rank
      | 'c', None ->
          let c = counter t name in
          c.c_value <- blob_word p rank
      | 'g', Some (Mg g) -> g.g_value <- blob_word p rank
      | 'g', None ->
          let g = gauge t name in
          g.g_value <- blob_word p rank
      | 'h', (Some (Mh _) | None) ->
          let h =
            match Hashtbl.find_opt t.by_name name with
            | Some (Mh h) -> h
            | _ -> histogram t name
          in
          let off = blob_word p rank in
          h.h_count <- blob_word p off;
          h.h_sum <- blob_word p (off + 1);
          Array.fill h.h_buckets 0 buckets 0;
          let np = blob_word p (off + 2) in
          for k = 0 to np - 1 do
            h.h_buckets.(blob_word p (off + 3 + (2 * k))) <-
              blob_word p (off + 3 + (2 * k) + 1)
          done
      | _, Some _ ->
          bad :=
            Some
              (Printf.sprintf "restore_packed: %s exists with another type" name)
      | _ -> assert false
    end
  done;
  match !bad with
  | Some m -> Error m
  | None ->
      if Hashtbl.length t.by_name <> n then
        Error
          (Printf.sprintf
             "restore_packed: registry has %d series, image has %d — stale \
              series would survive"
             (Hashtbl.length t.by_name) n)
      else Ok ()

(* ---- incremental merge ----

   One merge kernel for everything: the pairwise [merge] below, the
   fleet's streaming per-domain accumulators, and cross-domain tree
   merges all feed an [Accum.t]. Merging is a per-name integer sum
   (counters and gauges add; histograms add count, sum and each bucket),
   so it is associative and commutative: any grouping or ordering of
   the same multiset of snapshots accumulates to the same totals, and
   [to_snapshot] renders them sorted by name — byte-identical output
   however the merge tree was shaped. *)

module Accum = struct
  type acc =
    | Ac of { mutable av : int }
    | Ag of { mutable av : int }
    | Ah of { mutable ah_count : int; mutable ah_sum : int; ah_buckets : int array }

  type t = (string, acc) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let conflict name = invalid_arg ("Metrics.merge: " ^ name ^ " has conflicting types")

  let add_value t name v =
    match (Hashtbl.find_opt t name, v) with
    | None, Counter n -> Hashtbl.replace t name (Ac { av = n })
    | None, Gauge n -> Hashtbl.replace t name (Ag { av = n })
    | None, Histogram hs ->
        Hashtbl.replace t name
          (Ah
             {
               ah_count = hs.hs_count;
               ah_sum = hs.hs_sum;
               ah_buckets = Array.copy hs.hs_buckets;
             })
    | Some (Ac a), Counter n -> a.av <- a.av + n
    | Some (Ag a), Gauge n -> a.av <- a.av + n
    | Some (Ah a), Histogram hs ->
        a.ah_count <- a.ah_count + hs.hs_count;
        a.ah_sum <- a.ah_sum + hs.hs_sum;
        for i = 0 to buckets - 1 do
          a.ah_buckets.(i) <- a.ah_buckets.(i) + hs.hs_buckets.(i)
        done
    | Some _, _ -> conflict name

  let add t snap = List.iter (fun (name, v) -> add_value t name v) snap

  (* The packed fast path: no unpacking allocation on the hit path —
     scalars add in place, histogram pairs add into the accumulated
     bucket array. *)
  let add_packed t p =
    let sc = p.p_schema in
    for rank = 0 to Array.length sc.sc_names - 1 do
      let name = sc.sc_names.(rank) in
      match (Hashtbl.find_opt t name, sc.sc_kinds.[rank]) with
      | None, 'c' -> Hashtbl.replace t name (Ac { av = blob_word p rank })
      | None, 'g' -> Hashtbl.replace t name (Ag { av = blob_word p rank })
      | None, _ ->
          let off = blob_word p rank in
          let ah_buckets = Array.make buckets 0 in
          let np = blob_word p (off + 2) in
          for k = 0 to np - 1 do
            ah_buckets.(blob_word p (off + 3 + (2 * k))) <-
              blob_word p (off + 3 + (2 * k) + 1)
          done;
          Hashtbl.replace t name
            (Ah
               {
                 ah_count = blob_word p off;
                 ah_sum = blob_word p (off + 1);
                 ah_buckets;
               })
      | Some (Ac a), 'c' -> a.av <- a.av + blob_word p rank
      | Some (Ag a), 'g' -> a.av <- a.av + blob_word p rank
      | Some (Ah a), 'h' ->
          let off = blob_word p rank in
          a.ah_count <- a.ah_count + blob_word p off;
          a.ah_sum <- a.ah_sum + blob_word p (off + 1);
          let np = blob_word p (off + 2) in
          for k = 0 to np - 1 do
            let b = blob_word p (off + 3 + (2 * k)) in
            a.ah_buckets.(b) <- a.ah_buckets.(b) + blob_word p (off + 3 + (2 * k) + 1)
          done
      | Some _, _ -> conflict name
    done

  let absorb ~into src =
    Hashtbl.iter
      (fun name acc ->
        match (Hashtbl.find_opt into name, acc) with
        | None, Ac a -> Hashtbl.replace into name (Ac { av = a.av })
        | None, Ag a -> Hashtbl.replace into name (Ag { av = a.av })
        | None, Ah a ->
            Hashtbl.replace into name
              (Ah
                 {
                   ah_count = a.ah_count;
                   ah_sum = a.ah_sum;
                   ah_buckets = Array.copy a.ah_buckets;
                 })
        | Some (Ac d), Ac a -> d.av <- d.av + a.av
        | Some (Ag d), Ag a -> d.av <- d.av + a.av
        | Some (Ah d), Ah a ->
            d.ah_count <- d.ah_count + a.ah_count;
            d.ah_sum <- d.ah_sum + a.ah_sum;
            for i = 0 to buckets - 1 do
              d.ah_buckets.(i) <- d.ah_buckets.(i) + a.ah_buckets.(i)
            done
        | Some _, _ -> conflict name)
      src

  let to_snapshot t =
    Hashtbl.fold
      (fun name acc l ->
        let v =
          match acc with
          | Ac a -> Counter a.av
          | Ag a -> Gauge a.av
          | Ah a ->
              Histogram
                {
                  hs_count = a.ah_count;
                  hs_sum = a.ah_sum;
                  hs_buckets = Array.copy a.ah_buckets;
                }
        in
        (name, v) :: l)
      t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

let merge snaps =
  let a = Accum.create () in
  List.iter (Accum.add a) snaps;
  Accum.to_snapshot a

let merge_packed ps =
  (* Validate every image before folding any: [Accum.add_packed] reads
     the blob unchecked, so a truncated image must be refused up front
     rather than half-merged. *)
  let rec check = function
    | [] -> Ok ()
    | p :: rest -> (
        match validate_packed p with Error _ as e -> e | Ok () -> check rest)
  in
  match check ps with
  | Error e -> Error e
  | Ok () ->
      let a = Accum.create () in
      List.iter (Accum.add_packed a) ps;
      Ok (Accum.to_snapshot a)

(* ---- rendering ---- *)

let render_text snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Buffer.add_string buf (Printf.sprintf "%-44s %12d\n" name n)
      | Gauge n ->
          Buffer.add_string buf (Printf.sprintf "%-44s %12d (gauge)\n" name n)
      | Histogram hs ->
          Buffer.add_string buf
            (Printf.sprintf "%-44s count=%d sum=%d p50<=%d p99<=%d\n" name
               hs.hs_count hs.hs_sum (quantile hs 0.5) (quantile hs 0.99)))
    snap;
  Buffer.contents buf

let render_json snap =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  let first = ref true in
  List.iter
    (fun (name, v) ->
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      (match v with
      | Counter n -> Buffer.add_string buf (Printf.sprintf "  %S: %d" name n)
      | Gauge n -> Buffer.add_string buf (Printf.sprintf "  %S: %d" name n)
      | Histogram hs ->
          Buffer.add_string buf
            (Printf.sprintf "  %S: {\"count\": %d, \"sum\": %d, \"buckets\": ["
               name hs.hs_count hs.hs_sum);
          let firstb = ref true in
          Array.iteri
            (fun i n ->
              if n > 0 then begin
                if not !firstb then Buffer.add_string buf ", ";
                firstb := false;
                Buffer.add_string buf (Printf.sprintf "[%d, %d]" i n)
              end)
            hs.hs_buckets;
          Buffer.add_string buf "]}"))
    snap;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
