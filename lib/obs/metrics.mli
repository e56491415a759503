(** Metrics registry: named counters, gauges, and log2-bucketed
    histograms, cheaply recordable from simulation hot paths.

    Handles resolve their name once, at registration; every record
    operation afterwards is a plain field update (no hashing, no
    allocation). Registration is idempotent by name — two subsystems
    registering the same name share one series — and clashing on the
    metric type raises [Invalid_argument].

    Each registry also tracks its {e layout}: the sequence of series it
    registered, interned in a global trie shared by every registry (and
    every domain) that registers the same sequence. The sorted order a
    snapshot needs is sealed once per layout, so {!snapshot} and
    {!packed_of} never sort or look up names.

    Registration walks that trie. A name the trie already holds as the
    next step from the registry's layout is new to every registry at
    that layout, so it is appended with no lookup and keeps the trie's
    copy of the name: a board built from a known recipe registers each
    of its series this way, and keeps no name table. Any other registration
    (the first registry along a layout, a re-registered name, a type
    clash) scans the registry's own series for the name.

    Snapshots are deterministic (sorted by name, values copied out), so
    fleets of identical boards render byte-identical output regardless
    of registration order or domain placement. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram
(** The series registered under this name, registered now if there is
    none. [Invalid_argument] if the name holds another metric type. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> int -> unit

val gauge_value : gauge -> int

val observe : histogram -> int -> unit
(** Record one value: count, sum, and the log2 bucket. *)

val buckets : int
(** Number of histogram buckets (64). *)

val bucket_index : int -> int
(** [bucket_index v]: 0 for [v <= 0]; otherwise [floor(log2 v) + 1],
    clamped to [buckets - 1] — i.e. bucket [b >= 1] holds values in
    [\[2^(b-1), 2^b)]. *)

val bucket_lower_bound : int -> int
(** Smallest value a bucket can hold ([min_int] for bucket 0). *)

val on_snapshot : t -> (unit -> unit) -> unit
(** Register a sync hook run (in registration order) at the start of
    every {!snapshot} and {!packed_of} — used to publish externally-held
    state (process tables, ring drop counts) as gauges without touching
    hot paths. Resolve the gauges when the state is created, not in the
    hook: a hook that only sets values packs without a name lookup. *)

(** {2 Snapshots} *)

type hist_snapshot = { hs_count : int; hs_sum : int; hs_buckets : int array }

type value = Counter of int | Gauge of int | Histogram of hist_snapshot

type snapshot = (string * value) list
(** Sorted by name. *)

val snapshot : t -> snapshot

val quantile : hist_snapshot -> float -> int
(** Upper bound of the bucket holding the q-quantile observation
    (0 when empty, [max_int] from the top bucket): within 2x of the
    true quantile, monotone in q. *)

val merge : snapshot list -> snapshot
(** Merge by name: counters and gauges sum, histograms add bucket-wise.
    [Invalid_argument] if one name carries two metric types.

    {b Associativity contract.} Every combine is a per-name integer sum
    (counter + counter, gauge + gauge, histogram count/sum/buckets
    element-wise), so merging is associative {e and} commutative: for
    any multiset of snapshots, any merge tree — pairwise [merge],
    streaming accumulation into an {!Accum.t}, per-domain partial
    accumulators tree-merged with {!Accum.absorb} — produces the same
    snapshot, rendered sorted by name. The fleet runner relies on this
    to merge per-board stats as groups retire, in whatever order domains
    finish, and still emit byte-identical output. *)

(** {2 Packed snapshots}

    A [snapshot] assoc list costs ~10 kB of boxed heap per board; a
    100k-board fleet cannot afford to retain that. [packed] stores the
    same information as a shared immutable {!schema} (sorted names +
    kinds) plus one flat byte blob private to the board. The blob is a
    string, so the major GC never scans retained fleet stats —
    re-marking 100k boards' worth of boxed snapshots was the dominant
    cost of large fleets. Equal registries pack to structurally equal
    values regardless of domain placement: the layout is a pure
    function of the sorted (name, kind, value) sequence, never of
    global mutable ids. *)

type schema = {
  sc_names : string array;  (** sorted ascending *)
  sc_kinds : string;  (** ['c'|'g'|'h'] per sorted entry *)
}

type packed = {
  p_schema : schema;
  p_blob : string;
      (** int64-LE words, no-scan. Words [0, n): per sorted entry, the
          counter/gauge value or the absolute word offset of the
          entry's histogram record. Words [n, ...): per histogram at
          its offset: count; sum; npairs; then npairs (bucket index,
          bucket count) pairs, ascending *)
}

val packed_of : t -> packed
(** Snapshot a registry directly into packed form (runs the same sync
    hooks as {!snapshot}). [unpack (packed_of t) = snapshot t]. Reads
    the registry's sealed layout, so packing allocates only the blob
    and its record: no names, no key, no lock. The schema is interned:
    registries holding the same series set, in any registration order,
    on any domain, pack to one physical schema. *)

val pack : snapshot -> packed

val validate_packed : packed -> (unit, string) result
(** Structural check of a packed image against its own schema: blob
    length, histogram offsets, pair counts and bucket indices all in
    range. Images built by {!packed_of}/{!pack} pass by construction;
    images rebuilt from external bytes may not. *)

val unpack : packed -> (snapshot, string) result
(** Validates first (see {!validate_packed}): a truncated or
    bit-flipped image yields [Error], never an exception. *)

val iter_packed :
  packed ->
  counter:(string -> int -> unit) ->
  gauge:(string -> int -> unit) ->
  hist:(string -> count:int -> sum:int -> unit) ->
  unit
(** Allocation-free per-series fold over a packed image (histograms
    surface as their count/sum pair). Reads are unchecked: callers
    holding images from external bytes run {!validate_packed} first —
    {!packed_of_string} already has. *)

val packed_scalar : packed -> int -> int
(** [packed_scalar p rank]: entry [rank]'s per-board scalar — the
    counter or gauge value, or the histogram's observation count.
    Unchecked and allocation-free, like {!iter_packed}. *)

val packed_to_buffer : Buffer.t -> packed -> unit
(** Append the named image: series count, each sorted entry's
    length-prefixed name and kind char, then the blob. *)

val packed_of_string : string -> (packed, string) result
(** Decode a {!packed_to_buffer} image through {!Frame}'s reader. Total
    ([Error], never an exception), but structural only: a stored image
    sits in a {!Frame} section, whose MD5 covers its content. *)

val layout_digest : t -> string
(** MD5 of the registry's sealed layout (its sorted names and kinds),
    computed once per layout. Board witnesses store it in place of the
    names. Reads the layout as it stands: call it after {!packed_of},
    whose hooks may register series. *)

val restore : t -> digest:string -> string -> (unit, string) result
(** Overwrite every series of [t], by rank, from a {!packed.p_blob}
    packed at the layout [digest] — the thaw side of freeze/thaw.
    [Error], with [t] untouched, if [digest] is not [t]'s
    {!layout_digest} or the blob does not fit the layout. Runs no sync
    hooks. *)

val merge_packed : packed list -> (snapshot, string) result
(** [merge] over packed snapshots without unpacking. Every image is
    {!validate_packed}-checked before any is folded: corrupt input
    yields [Error] with nothing half-merged. *)

(** {2 Per-schema plans}

    A bounded cache from physical {!schema} to a consumer's plan (one
    cell per sorted entry), shared by {!Accum} and [Rollup]. Schemas
    from {!packed_of} are interned, so a fleet sees a handful; {!pack}
    and {!packed_of_string} mint a fresh one per call, which is why the
    cache holds at most 32 and starts over when full. *)

module Schema_cache : sig
  type 'a t

  val create : unit -> 'a t

  val find : 'a t -> schema -> 'a
  (** The plan cached for this physical schema. [Not_found] if none.
      Allocation-free. *)

  val add : 'a t -> schema -> 'a -> unit
end

(** {2 Streaming accumulation}

    The single merge kernel shared by pairwise {!merge}, the fleet's
    per-domain streaming accumulators, and cross-domain tree merges.
    [add_packed] resolves each distinct schema to its accumulator
    cells once ({!Schema_cache}); an image whose schema was seen before
    adds by rank with no name lookups and allocates nothing. *)

module Accum : sig
  type t

  val create : unit -> t

  val add : t -> snapshot -> unit
  val add_packed : t -> packed -> unit

  val absorb : into:t -> t -> unit
  (** Fold a partial accumulator into [into] (tree merge across
      domains). [src] is unchanged. *)

  val to_snapshot : t -> snapshot
  (** Render the accumulated totals, sorted by name — byte-identical
      for any grouping/order of the same inputs (see the associativity
      contract on {!val-merge}). *)
end

val render_text : snapshot -> string
(** Aligned human-readable table, histograms as count/sum/p50/p99. *)

val render_json : snapshot -> string
(** Deterministic JSON object keyed by metric name; histograms as
    [{"count", "sum", "buckets": [[index, n], ...]}] (empty buckets
    omitted). *)
