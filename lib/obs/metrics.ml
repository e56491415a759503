(* The metrics registry: named counters, gauges, and log2-bucketed
   histograms, designed for hot-path recording.

   - Handles are resolved by name once, at registration time; the record
     operations ([incr]/[add]/[set]/[observe]) are plain field updates
     with no hashing, no allocation, and no branching beyond bounds.
   - Registration is idempotent by name, so independent subsystems that
     agree on a name share one series (used deliberately: the two boards
     of a radio group share their sim-level hardware counters).
   - Every registry always knows its *layout*: its series in
     registration order, interned in a global trie (below). Snapshots,
     packing and merging read the layout's sealed sorted order instead
     of re-deriving it from the names.
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
  mutable h_top : int; (* every bucket above it is empty (-1: all are),
                          so packing scans [0, h_top] only *)
  h_buckets : int array; (* length [buckets] *)
}

type metric = Mc of counter | Mg of gauge | Mh of histogram

type schema = {
  sc_names : string array; (* sorted ascending *)
  sc_kinds : string;       (* 'c' | 'g' | 'h' per sorted entry *)
}

(* ---- layouts ----

   A layout is a registration sequence: the (name, kind) of every
   series a registry has registered, in order. Layouts are interned in
   one global trie whose nodes are keyed by (parent layout, next series),
   so every registry that registers the same sequence walks the same
   nodes — identical board recipes share one path however many boards,
   domains or rebuilds there are.

   - A registry steps to a child on each *new* registration. Children
     are read lock-free (an [Atomic] list, [==] fast path on the name);
     adding one takes [layout_mutex], as does sealing (below). Packing
     a registry at a sealed layout takes no lock.
   - A node's sorted schema and rank -> registration-index order are
     *sealed* lazily, on the first snapshot or pack at that node (sealing
     every node eagerly would store O(n^2) names per path). Sealed
     schemas are interned by content, so equal series sets share one
     physical schema whatever their registration order, and its MD5
     digest is taken once, when it is interned: witnesses store that
     digest in place of the names.
   - [l_span] is the deepest layout ever reached below a node: it sizes
     a registry's series array so a board built from a known recipe
     grows it at most once.

   The trie never shrinks: it holds one node per distinct registration
   prefix, which a fleet of a few board recipes reaches in its first
   groups. *)

type sealed = {
  s_schema : schema;
  s_order : int array; (* s_order.(rank) = registration index *)
  s_digest : string; (* MD5 of the schema's image, see [schema_digest] *)
}

type layout = {
  l_parent : layout option; (* [None] only at the root *)
  l_name : string;          (* the series this step registered *)
  l_kind : char;
  l_depth : int;            (* series registered at this layout *)
  l_children : layout list Atomic.t;
  l_span : int Atomic.t;
  l_sealed : sealed option Atomic.t;
}

let new_layout parent name kind depth =
  {
    l_parent = parent;
    l_name = name;
    l_kind = kind;
    l_depth = depth;
    l_children = Atomic.make [];
    l_span = Atomic.make depth;
    l_sealed = Atomic.make None;
  }

let root = new_layout None "" 'c' 0

let layout_mutex = Mutex.create ()

(* otock-lint: allow domain-safety the only access path is [seal], whose lookup/insert runs entirely under [Mutex.protect layout_mutex]; interned schemas are immutable once built *)
let schemas : (schema, schema * string) Hashtbl.t = Hashtbl.create 16

(* A schema's image: series count, then per sorted entry its
   length-prefixed name and kind char. Named packed images lead with
   it, and its MD5 identifies a layout in board witnesses. *)
let add_schema b sc =
  Frame.add_int b (Array.length sc.sc_names);
  Array.iteri
    (fun rank name ->
      Frame.add_string b name;
      Buffer.add_char b sc.sc_kinds.[rank])
    sc.sc_names

let schema_digest sc =
  let b = Buffer.create 1024 in
  add_schema b sc;
  Digest.string (Buffer.contents b)

let rec child_in name kind = function
  | [] -> raise_notrace Not_found
  | c :: rest ->
      if (c.l_name == name || String.equal c.l_name name) && c.l_kind = kind
      then c
      else child_in name kind rest

let step lay name kind =
  match child_in name kind (Atomic.get lay.l_children) with
  | c -> c
  | exception Not_found ->
      Mutex.protect layout_mutex (fun () ->
          let kids = Atomic.get lay.l_children in
          match child_in name kind kids with
          | c -> c
          | exception Not_found ->
              let depth = lay.l_depth + 1 in
              let c = new_layout (Some lay) name kind depth in
              Atomic.set lay.l_children (c :: kids);
              let rec widen = function
                | Some a when Atomic.get a.l_span < depth ->
                    Atomic.set a.l_span depth;
                    widen a.l_parent
                | _ -> ()
              in
              widen (Some lay);
              c)

let seal lay =
  match Atomic.get lay.l_sealed with
  | Some s -> s
  | None ->
      let n = lay.l_depth in
      let names = Array.make n "" and kinds = Bytes.make n 'c' in
      let rec fill l =
        match l.l_parent with
        | None -> ()
        | Some p ->
            names.(l.l_depth - 1) <- l.l_name;
            Bytes.set kinds (l.l_depth - 1) l.l_kind;
            fill p
      in
      fill lay;
      let order = Array.init n Fun.id in
      Array.sort (fun a b -> String.compare names.(a) names.(b)) order;
      let sc =
        {
          sc_names = Array.map (fun i -> names.(i)) order;
          sc_kinds = String.init n (fun rank -> Bytes.get kinds order.(rank));
        }
      in
      Mutex.protect layout_mutex (fun () ->
          match Atomic.get lay.l_sealed with
          | Some s -> s
          | None ->
              let sc, digest =
                match Hashtbl.find_opt schemas sc with
                | Some shared -> shared
                | None ->
                    let shared = (sc, schema_digest sc) in
                    Hashtbl.add schemas sc shared;
                    shared
              in
              let s = { s_schema = sc; s_order = order; s_digest = digest } in
              Atomic.set lay.l_sealed (Some s);
              s)

(* ---- registries ----

   Registration follows the trie. A child (name, kind) of a registry's
   layout node exists only because some registry at that node
   registered [name] as new, so [name] is new to every registry at that
   node: a hit appends the series with no lookup and reuses the child's
   interned name. Only a miss looks the name up, by a scan of the
   registry's own series, which keeps nothing. Misses come from the
   first registry along a path (once per board recipe), from
   re-registering a name (both SHA engines count into
   [irq.sha.serviced]; a radio group's boards share their sim-level
   series) and from kind clashes. *)

type t = {
  mutable series : metric array;
      (* registration order; entries [0, lay.l_depth) are live *)
  mutable lay : layout;
  mutable sync_hooks : (unit -> unit) list; (* run (in registration order)
                                               before every snapshot/pack *)
}

let create () = { series = [||]; lay = root; sync_hooks = [] }

let clash name = invalid_arg ("Metrics: " ^ name ^ " registered with another type")

let metric_name = function Mc c -> c.c_name | Mg g -> g.g_name | Mh h -> h.h_name

(* Append [m], registered at [lay], a child of [t.lay]. *)
let append t lay m =
  let i = t.lay.l_depth in
  let cap = Array.length t.series in
  if i = cap then begin
    let grown = Array.make (max (2 * cap) (Atomic.get lay.l_span)) m in
    Array.blit t.series 0 grown 0 cap;
    t.series <- grown
  end;
  t.series.(i) <- m;
  t.lay <- lay

let find t name =
  let rec scan i =
    if i = t.lay.l_depth then None
    else
      let m = t.series.(i) in
      if String.equal (metric_name m) name then Some m else scan (i + 1)
  in
  scan 0

(* The series [t] holds under [name] — a new one from [fresh], given
   the name string to keep, if there is none. The caller checks the
   kind of a series found by name. *)
let resolve t name kind fresh =
  match child_in name kind (Atomic.get t.lay.l_children) with
  | lay ->
      let m = fresh lay.l_name in
      append t lay m;
      m
  | exception Not_found -> (
      match find t name with
      | Some m -> m
      | None ->
          let m = fresh name in
          append t (step t.lay name kind) m;
          m)

let counter t name =
  match resolve t name 'c' (fun c_name -> Mc { c_name; c_value = 0 }) with
  | Mc c -> c
  | Mg _ | Mh _ -> clash name

let gauge t name =
  match resolve t name 'g' (fun g_name -> Mg { g_name; g_value = 0 }) with
  | Mg g -> g
  | Mc _ | Mh _ -> clash name

let histogram t name =
  let fresh h_name =
    Mh { h_name; h_count = 0; h_sum = 0; h_top = -1; h_buckets = Array.make buckets 0 }
  in
  match resolve t name 'h' fresh with Mh h -> h | Mc _ | Mg _ -> clash name

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let counter_value c = c.c_value

let set g v = g.g_value <- v

let gauge_value g = g.g_value

let bucket_index v =
  if v <= 0 then 0
  else begin
    (* floor(log2 v) + 1, clamped: v=1 -> 1, v in [2^(b-1), 2^b) -> b.
       A fixed binary search over the bit width, six shifts whatever the
       value: every syscall, interrupt and fleet quantum lands a
       sample. *)
    let n = ref 1 and v = ref v in
    if !v lsr 32 <> 0 then begin n := !n + 32; v := !v lsr 32 end;
    if !v lsr 16 <> 0 then begin n := !n + 16; v := !v lsr 16 end;
    if !v lsr 8 <> 0 then begin n := !n + 8; v := !v lsr 8 end;
    if !v lsr 4 <> 0 then begin n := !n + 4; v := !v lsr 4 end;
    if !v lsr 2 <> 0 then begin n := !n + 2; v := !v lsr 2 end;
    if !v lsr 1 <> 0 then n := !n + 1;
    if !n > buckets - 1 then buckets - 1 else !n
  end

let bucket_lower_bound b =
  if b <= 0 then min_int else 1 lsl (b - 1)

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let b = bucket_index v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  if b > h.h_top then h.h_top <- b

let on_snapshot t hook = t.sync_hooks <- t.sync_hooks @ [ hook ]

(* Hooks may register series, so a caller reads [t.lay] only after
   this returns. *)
let run_hooks t = List.iter (fun hook -> hook ()) t.sync_hooks

(* ---- snapshots ---- *)

type hist_snapshot = { hs_count : int; hs_sum : int; hs_buckets : int array }

type value = Counter of int | Gauge of int | Histogram of hist_snapshot

type snapshot = (string * value) list

let snapshot t =
  run_hooks t;
  let s = seal t.lay in
  let names = s.s_schema.sc_names in
  let rec go rank acc =
    if rank < 0 then acc
    else
      let v =
        match t.series.(s.s_order.(rank)) with
        | Mc c -> Counter c.c_value
        | Mg g -> Gauge g.g_value
        | Mh h ->
            Histogram
              { hs_count = h.h_count; hs_sum = h.h_sum;
                hs_buckets = Array.copy h.h_buckets }
      in
      go (rank - 1) ((names.(rank), v) :: acc)
  in
  go (Array.length names - 1) []

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

   [packed_of] reads the registry's sealed layout: the interned schema
   and the rank -> registration-index order. Packing a board is the
   sync hooks plus one pass to size the histogram area and one to write
   the blob — no names, no key, no lock. Equal registries pack to
   structurally equal values whatever the domain interleaving: the
   layout is a pure function of (sorted names, kinds, values), and
   nothing in [schema] or [packed] depends on intern order. *)

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

let set_word blob i v = Bytes.set_int64_le blob (8 * i) (Int64.of_int v)

(* Histogram records scan buckets [0, top]: a registry histogram's
   [h_top], or the whole array for a snapshot's. *)
let hist_pairs h_buckets ~top =
  let nz = ref 0 in
  for b = 0 to top do
    if h_buckets.(b) <> 0 then Stdlib.incr nz
  done;
  !nz

let hist_words h_buckets ~top = 3 + (2 * hist_pairs h_buckets ~top)

(* Write one histogram record at word [off]; returns the word after it. *)
let write_hist blob off ~count ~sum ~top h_buckets =
  set_word blob off count;
  set_word blob (off + 1) sum;
  let j = ref (off + 3) in
  for b = 0 to top do
    let v = h_buckets.(b) in
    if v <> 0 then begin
      set_word blob !j b;
      set_word blob (!j + 1) v;
      j := !j + 2
    end
  done;
  set_word blob (off + 2) ((!j - off - 3) / 2);
  !j

let packed_of t =
  run_hooks t;
  let s = seal t.lay in
  let order = s.s_order and series = t.series in
  let n = Array.length order in
  (* Histogram area size, walking in rank order so offsets are a pure
     function of the sorted layout. *)
  let words = ref n in
  for rank = 0 to n - 1 do
    match series.(order.(rank)) with
    | Mh h -> words := !words + hist_words h.h_buckets ~top:h.h_top
    | Mc _ | Mg _ -> ()
  done;
  let blob = Bytes.create (8 * !words) in
  let cursor = ref n in
  for rank = 0 to n - 1 do
    match series.(order.(rank)) with
    | Mc c -> set_word blob rank c.c_value
    | Mg g -> set_word blob rank g.g_value
    | Mh h ->
        set_word blob rank !cursor;
        cursor :=
          write_hist blob !cursor ~count:h.h_count ~sum:h.h_sum ~top:h.h_top
            h.h_buckets
  done;
  { p_schema = s.s_schema; p_blob = Bytes.unsafe_to_string blob }

let pack snap =
  let n = List.length snap in
  let sc_names = Array.make n "" in
  let kinds = Bytes.make n 'c' in
  let words =
    List.fold_left
      (fun acc (_, v) ->
        match v with
        | Histogram hs -> acc + hist_words hs.hs_buckets ~top:(buckets - 1)
        | Counter _ | Gauge _ -> acc)
      n snap
  in
  let blob = Bytes.create (8 * words) in
  let cursor = ref n in
  List.iteri
    (fun rank (name, v) ->
      sc_names.(rank) <- name;
      match v with
      | Counter c -> set_word blob rank c
      | Gauge g ->
          Bytes.set kinds rank 'g';
          set_word blob rank g
      | Histogram hs ->
          Bytes.set kinds rank 'h';
          set_word blob rank !cursor;
          cursor :=
            write_hist blob !cursor ~count:hs.hs_count ~sum:hs.hs_sum
              ~top:(buckets - 1) hs.hs_buckets)
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
   flight-recorder artifacts) arrive digest-checked by [Frame], but a
   decoder must still hold up on any bytes: [Error] with a diagnostic,
   never an exception. *)
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

(* Unchecked per-series fold over a validated image. Histograms
   surface as their (count, sum) pair; [packed_scalar] reads one entry's
   per-board scalar, the shape the health rollup's cross-board
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

let packed_scalar p rank =
  let v = blob_word p rank in
  match p.p_schema.sc_kinds.[rank] with 'c' | 'g' -> v | _ -> blob_word p v

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

(* The named image: the schema image ([add_schema]), then the blob,
   which already is the canonical int64-LE value image. The one
   encoder: the flight recorder writes it straight into its section. *)
let packed_to_buffer b p =
  add_schema b p.p_schema;
  Buffer.add_string b p.p_blob

(* Decode a [packed_to_buffer] image: [Frame]'s bounds-checked reader
   for the schema, [validate_packed] for kinds, blob size and histogram
   records. Structure only — the frame section holding the image
   carries its digest. *)
let packed_of_string s =
  let decoded =
    Frame.parse s (fun r ->
        let entries =
          Frame.list r ~min:9 (fun r ->
              let name = Frame.string r in
              (name, Frame.raw r 1))
        in
        let sc_names = Array.of_list (List.map fst entries) in
        let sc_kinds = String.concat "" (List.map snd entries) in
        { p_schema = { sc_names; sc_kinds }; p_blob = Frame.rest r })
  in
  match decoded with
  | Error e -> Error ("packed: " ^ e)
  | Ok p -> ( match validate_packed p with Ok () -> Ok p | Error e -> Error e)

(* ---- restore by layout: the thaw side of board freeze/thaw ---- *)

let layout_digest t = (seal t.lay).s_digest

let restore t ~digest blob =
  let s = seal t.lay in
  let p = { p_schema = s.s_schema; p_blob = blob } in
  if not (String.equal digest s.s_digest) then
    Error "restore: the image was packed at another layout"
  else
    Result.map
      (fun () ->
        Array.iteri
          (fun rank i ->
            match t.series.(i) with
            | Mc c -> c.c_value <- blob_word p rank
            | Mg g -> g.g_value <- blob_word p rank
            | Mh h ->
                let off = blob_word p rank in
                h.h_count <- blob_word p off;
                h.h_sum <- blob_word p (off + 1);
                Array.fill h.h_buckets 0 buckets 0;
                for k = 0 to blob_word p (off + 2) - 1 do
                  h.h_buckets.(blob_word p (off + 3 + (2 * k))) <-
                    blob_word p (off + 4 + (2 * k))
                done;
                h.h_top <- buckets - 1;
                while h.h_top >= 0 && h.h_buckets.(h.h_top) = 0 do
                  h.h_top <- h.h_top - 1
                done)
          s.s_order)
      (validate_packed p)

(* ---- per-schema plans ----

   Consumers of packed images (the merge accumulator, the health
   rollup) resolve each distinct schema to an array of per-entry cells
   once, then walk images by rank with no name lookups. Schemas from
   [packed_of] are interned, so a fleet shows a handful of physical
   schemas and the cache keys on physical identity. [pack] and
   [packed_of_string] mint a fresh schema per call, so the cache is
   bounded: when full, it starts over. *)

module Schema_cache = struct
  type 'a t = { mutable entries : (schema * 'a) list; mutable size : int }

  let capacity = 32

  let create () = { entries = []; size = 0 }

  let rec find_in s = function
    | [] -> raise_notrace Not_found
    | (k, v) :: rest -> if k == s then v else find_in s rest

  let find c s = find_in s c.entries

  let add c s v =
    if c.size >= capacity then begin
      c.entries <- [];
      c.size <- 0
    end;
    c.entries <- (s, v) :: c.entries;
    c.size <- c.size + 1
end

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

  type t = {
    a_tbl : (string, acc) Hashtbl.t;
    a_plans : acc array Schema_cache.t; (* schema -> cell per rank *)
  }

  let create () = { a_tbl = Hashtbl.create 64; a_plans = Schema_cache.create () }

  let conflict name = invalid_arg ("Metrics.merge: " ^ name ^ " has conflicting types")

  let add_value t name v =
    match (Hashtbl.find_opt t.a_tbl name, v) with
    | None, Counter n -> Hashtbl.replace t.a_tbl name (Ac { av = n })
    | None, Gauge n -> Hashtbl.replace t.a_tbl name (Ag { av = n })
    | None, Histogram hs ->
        Hashtbl.replace t.a_tbl name
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

  (* The accumulator cell for a schema entry, created empty if absent:
     adding an image into it then matches adding it by name. *)
  let cell t sc rank =
    let name = sc.sc_names.(rank) in
    match (Hashtbl.find_opt t.a_tbl name, sc.sc_kinds.[rank]) with
    | Some (Ac _ as a), 'c' | Some (Ag _ as a), 'g' -> a
    | Some (Ah _ as a), k when k <> 'c' && k <> 'g' -> a
    | Some _, _ -> conflict name
    | None, k ->
        let a =
          match k with
          | 'c' -> Ac { av = 0 }
          | 'g' -> Ag { av = 0 }
          | _ -> Ah { ah_count = 0; ah_sum = 0; ah_buckets = Array.make buckets 0 }
        in
        Hashtbl.replace t.a_tbl name a;
        a

  (* The packed fast path: each distinct schema resolves to its cells
     once; after that, scalars add in place and histogram pairs add
     into the accumulated bucket arrays — no lookups, no allocation. *)
  let add_packed t p =
    let sc = p.p_schema in
    let plan =
      match Schema_cache.find t.a_plans sc with
      | plan -> plan
      | exception Not_found ->
          let plan = Array.init (Array.length sc.sc_names) (cell t sc) in
          Schema_cache.add t.a_plans sc plan;
          plan
    in
    for rank = 0 to Array.length plan - 1 do
      match plan.(rank) with
      | Ac a -> a.av <- a.av + blob_word p rank
      | Ag a -> a.av <- a.av + blob_word p rank
      | Ah a ->
          let off = blob_word p rank in
          a.ah_count <- a.ah_count + blob_word p off;
          a.ah_sum <- a.ah_sum + blob_word p (off + 1);
          let np = blob_word p (off + 2) in
          for k = 0 to np - 1 do
            let b = blob_word p (off + 3 + (2 * k)) in
            a.ah_buckets.(b) <- a.ah_buckets.(b) + blob_word p (off + 3 + (2 * k) + 1)
          done
    done

  let absorb ~into src =
    Hashtbl.iter
      (fun name acc ->
        match (Hashtbl.find_opt into.a_tbl name, acc) with
        | None, Ac a -> Hashtbl.replace into.a_tbl name (Ac { av = a.av })
        | None, Ag a -> Hashtbl.replace into.a_tbl name (Ag { av = a.av })
        | None, Ah a ->
            Hashtbl.replace into.a_tbl name
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
      src.a_tbl

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
      t.a_tbl []
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
      Buffer.add_string buf (Printf.sprintf "  \"%s\": " (Trace.escape name));
      (match v with
      | Counter n | Gauge n -> Buffer.add_string buf (string_of_int n)
      | Histogram hs ->
          Buffer.add_string buf
            (Printf.sprintf "{\"count\": %d, \"sum\": %d, \"buckets\": ["
               hs.hs_count hs.hs_sum);
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
