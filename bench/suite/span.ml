(* Host-time spans recorded from outside the program: the traced replica
   wraps each call into a layer in [time], which charges the call's
   duration and minor-heap allocation to that layer. Spans never nest
   (each wraps one public call made by the replica loop), so a span's
   duration is its layer's self time.

   Full start/stop pairs are kept only for the first [full_units] units
   (boards, or challenges on rot-attest) so the Perfetto file stays
   small; every later span is folded into its layer's totals. *)

(* CLOCK_MONOTONIC in ns, via bechamel's stub; declared here unboxed so a
   reading allocates nothing inside a span. System-wide, so a parent and
   its child processes can compare readings. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (clock_ns ())

type layer = Build | Rebuild | Run | Sleep | Freeze | Thaw | Retire | Merge | Rollup | Boot

let layers = [ Build; Rebuild; Run; Sleep; Freeze; Thaw; Retire; Merge; Rollup; Boot ]

let index = function
  | Build -> 0
  | Rebuild -> 1
  | Run -> 2
  | Sleep -> 3
  | Freeze -> 4
  | Thaw -> 5
  | Retire -> 6
  | Merge -> 7
  | Rollup -> 8
  | Boot -> 9

let name = function
  | Build -> "boards.build"
  | Rebuild -> "boards.rebuild"
  | Run -> "kernel.run"
  | Sleep -> "kernel.sleep"
  | Freeze -> "kernel.freeze"
  | Thaw -> "kernel.thaw"
  | Retire -> "fleet.retire"
  | Merge -> "obs.merge"
  | Rollup -> "obs.rollup"
  | Boot -> "rot.boot"

let nlayers = List.length layers

let full_units = 256

(* Total host time the runtime spent in GC phases, read from this
   process's own runtime_events ring. Only top-level phases count, so
   nested sub-phases are not charged twice. *)
module Gc_pause = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    total_ns : int ref;
  }

  let create () =
    Runtime_events.start ();
    let depth = ref 0 and start = ref 0 and total_ns = ref 0 in
    let ts_ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
    let runtime_begin _ ts _ =
      if !depth = 0 then start := ts_ns ts;
      incr depth
    in
    let runtime_end _ ts _ =
      if !depth > 0 then begin
        decr depth;
        if !depth = 0 then total_ns := !total_ns + (ts_ns ts - !start)
      end
    in
    {
      cursor = Runtime_events.create_cursor None;
      callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ();
      total_ns;
    }

  (* GC time so far, in ns. *)
  let read t =
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    !(t.total_ns)
end

type t = {
  on : bool;
  self_ns : int array;
  calls : int array;
  minor_words : float array;
  kept_ns : int array;  (* part of [self_ns] also kept as full spans *)
  mutable keep : bool;  (* keep full spans for the current unit *)
  mutable full : (int * int * int) list;  (* layer index, start, stop; newest first *)
  mutable wall_start : int;
  mutable outside_ns : int;  (* spans recorded before [wall_start] (set-up) *)
  mutable boot_ns : int list;
  mutable poll : unit -> unit;
  mutable since_poll : int;
}

let make on =
  {
    on;
    self_ns = Array.make nlayers 0;
    calls = Array.make nlayers 0;
    minor_words = Array.make nlayers 0.;
    kept_ns = Array.make nlayers 0;
    keep = false;
    full = [];
    wall_start = max_int;
    outside_ns = 0;
    boot_ns = [];
    poll = ignore;
    since_poll = 0;
  }

(* The untraced replica and the end-to-end rot driver share this inert
   recorder: [time] is then one branch and a direct call. *)
let off = make false

let create () = make true

(* The GC ring holds a few thousand events; drain it often enough that
   a long run never overwrites unread ones. *)
let poll_every = 512

let time t layer f =
  if not t.on then f ()
  else begin
    let i = index layer in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    t.minor_words.(i) <- t.minor_words.(i) +. (Gc.minor_words () -. w0);
    let d = t1 - t0 in
    t.self_ns.(i) <- t.self_ns.(i) + d;
    t.calls.(i) <- t.calls.(i) + 1;
    if t0 < t.wall_start then t.outside_ns <- t.outside_ns + d;
    if t.keep then begin
      t.full <- (i, t0, t1) :: t.full;
      t.kept_ns.(i) <- t.kept_ns.(i) + d
    end;
    if layer = Boot then t.boot_ns <- d :: t.boot_ns;
    t.since_poll <- t.since_poll + 1;
    if t.since_poll >= poll_every then begin
      t.since_poll <- 0;
      t.poll ()
    end;
    r
  end

(* Self time of every span recorded inside the measured window. *)
let attributed_ns t = Array.fold_left ( + ) 0 t.self_ns - t.outside_ns
