(* The per-process syscall tables, checked differentially: random
   operation sequences run on a real process and on a plain
   association-list model, and every returned old entry, lookup, queued
   upcall and witness table section must agree. The model is the
   semantics the tables had when they were hash tables keyed by
   (driver, num): a key, once added, stays (null or zero) until restart
   or thaw clears the tables, because freeze writes it into the
   witness. *)

open! Helpers
open Tock
module Mpu = Tock_hw.Mpu

let flash_base = 0x0004_0000

let flash_size = 2048

let make_proc () =
  let mpu = Mpu.create Mpu.Cortex_m in
  let cfg = Mpu.new_config mpu in
  match
    Mpu.allocate_app_memory_region mpu cfg ~unallocated_start:0x2000_0000
      ~unallocated_size:65_536 ~min_memory_size:8_192
      ~initial_app_memory_size:4_096 ~initial_kernel_memory_size:1_024
  with
  | None -> Alcotest.fail "tables: app memory allocation failed"
  | Some (base, size) ->
      Process.create ~id:0 ~name:"tables" ~ram_base:base ~ram_size:size
        ~initial_app_break:(base + 4_096) ~flash_base
        ~flash:(Bytes.create flash_size) ~mpu ~mpu_config:cfg
        ~permissions:None ~storage:None ~tbf_flags:0

(* ---- the process tables ---- *)

type kind = [ `Rw | `Ro ]

type op =
  | Sub of int * int * int * int (* driver, num, fnptr, appdata; 0, 0 = null *)
  | Allow of kind * int * int * [ `Ram | `Flash ] * int * int * bool
      (* kind, driver, num, region, offset, length, reject overlaps;
         length 0 at offset 0 is the zero allow *)
  | Enqueue of int * int * int (* driver, num, arg *)
  | Pop
  | Pop_for of int * int
  | Restart
  | Freeze_thaw

let pp_op = function
  | Sub (d, n, f, a) -> Printf.sprintf "sub(%d,%d,%d,%d)" d n f a
  | Allow (k, d, n, r, o, l, rej) ->
      Printf.sprintf "allow-%s(%d,%d,%s+%d,%d%s)"
        (match k with `Rw -> "rw" | `Ro -> "ro")
        d n
        (match r with `Ram -> "ram" | `Flash -> "flash")
        o l
        (if rej then ",reject" else "")
  | Enqueue (d, n, a) -> Printf.sprintf "enqueue(%d,%d,%d)" d n a
  | Pop -> "pop"
  | Pop_for (d, n) -> Printf.sprintf "pop-for(%d,%d)" d n
  | Restart -> "restart"
  | Freeze_thaw -> "freeze-thaw"

let gen_op =
  let open QCheck2.Gen in
  (* Few keys, so swaps hit existing slots and windows overlap. *)
  let key = pair (int_range 0 2) (int_range 0 2) in
  (* Subscriptions and queue traffic on fewer keys, so most enqueues
     land, the queue fills and plucks reach past its head. *)
  let queue_key = pair (int_range 0 1) (int_range 0 1) in
  frequency
    [
      ( 4,
        map2
          (fun (d, n) (f, a) -> Sub (d, n, f, a))
          queue_key
          (frequency
             [ (1, return (0, 0)); (3, pair (int_range 1 50) (int_range 0 3)) ]) );
      ( 6,
        map3
          (fun (k, (d, n)) (region, off, len) rej ->
            let region = if k = `Rw then `Ram else region in
            Allow (k, d, n, region, off, len, rej))
          (pair (oneofl [ `Rw; `Ro ]) key)
          (triple (oneofl [ `Ram; `Flash ])
             (oneof [ return 0; int_range 0 96 ])
             (oneof [ return 0; int_range 0 48 ]))
          bool );
      (6, map2 (fun (d, n) a -> Enqueue (d, n, a)) queue_key (int_range 0 1000));
      (2, return Pop);
      (3, map (fun (d, n) -> Pop_for (d, n)) queue_key);
      (1, return Restart);
      (2, return Freeze_thaw);
    ]

type model = {
  mutable subs : ((int * int) * (int * int)) list; (* key -> fnptr, appdata *)
  mutable allows : ((kind * int * int) * (int * int)) list; (* key -> addr, len *)
  mutable queue : (int * int * int * int * int) list;
      (* driver, num, fnptr, appdata, arg; oldest first *)
  mutable drops : int;
}

let assoc_swap l k v default =
  let old = Option.value (List.assoc_opt k l) ~default in
  (old, (k, v) :: List.remove_assoc k l)

(* The image section the witness would hold for each table. *)
let freeze_tables p =
  let b = Buffer.create 256 in
  Tock_obs.Frame.add_int b 1;
  Process.add_image b p ~resume:None ~grants:[];
  match Tock_obs.Frame.parse (Buffer.contents b) Process.read_images with
  | Ok [ img ] -> img
  | Ok _ -> Alcotest.fail "tables: one image expected"
  | Error e -> Alcotest.failf "tables: image does not decode: %s" e

let check_tables ~step m img =
  let subs =
    List.map
      (fun (d, n, up) -> ((d, n), (up.Process.fnptr, up.Process.appdata)))
      (Process.image_subscriptions img)
  in
  let allows =
    List.map
      (fun (k, d, n, a, l) -> ((k, d, n), (a, l)))
      (Process.image_allows img)
  in
  let sorted l = List.sort compare l in
  (* Witness order: keys sorted, read-write allows before read-only. *)
  let kind_rank = function `Rw -> 0 | `Ro -> 1 in
  let allow_order ((k1, d1, n1), _) ((k2, d2, n2), _) =
    compare (kind_rank k1, d1, n1) (kind_rank k2, d2, n2)
  in
  if subs <> sorted m.subs then
    QCheck2.Test.fail_reportf "step %d: witness subscriptions differ" step;
  if allows <> List.sort allow_order m.allows then
    QCheck2.Test.fail_reportf "step %d: witness allows differ" step

let addr_of p region off =
  match region with
  | `Ram -> Process.ram_base p + off
  | `Flash -> flash_base + off

let run_ops ops =
  let p = make_proc () in
  let ram_base = Process.ram_base p in
  let m = { subs = []; allows = []; queue = []; drops = 0 } in
  let frame = Array.make 5 0 in
  let fail step fmt = QCheck2.Test.fail_reportf ("step %d: " ^^ fmt) step in
  let model_overlaps kind addr len =
    len > 0
    && List.exists
         (fun ((k, _, _), (a, l)) ->
           k = kind && l > 0 && a < addr + len && addr < a + l)
         m.allows
  in
  let check_pop step got want =
    match want with
    | None -> if got then fail step "popped from an empty model queue"
    | Some (_, _, f, a, x) ->
        if not got then fail step "queue empty, model holds an upcall";
        if Array.to_list frame <> [ f; a; x; x + 1; x + 2 ] then
          fail step "popped upcall differs"
  in
  List.iteri
    (fun step op ->
      match op with
      | Sub (driver, subscribe_num, fnptr, appdata) ->
          let up =
            if fnptr = 0 && appdata = 0 then Process.null_upcall
            else { Process.fnptr; appdata }
          in
          let old = Process.subscribe_swap p ~driver ~subscribe_num up in
          let want, subs =
            assoc_swap m.subs (driver, subscribe_num) (fnptr, appdata) (0, 0)
          in
          m.subs <- subs;
          if (old.Process.fnptr, old.Process.appdata) <> want then
            fail step "subscribe swap returned (%d,%d), model (%d,%d)"
              old.Process.fnptr old.Process.appdata (fst want) (snd want)
      | Allow (kind, driver, allow_num, region, off, len, reject) ->
          let addr = if off = 0 && len = 0 then 0 else addr_of p region off in
          let overlaps = Process.allow_overlaps p ~kind ~addr ~len in
          if overlaps <> model_overlaps kind addr len then
            fail step "allow_overlaps %b, model %b" overlaps (not overlaps);
          (* The two aliasing policies: reject refuses an overlapping
             allow before it reaches the table; cell semantics takes it. *)
          if not (reject && overlaps) then begin
            let e = Process.allow_entry p ~kind ~driver ~allow_num ~addr ~len in
            if e.Process.a_addr <> addr || e.Process.a_len <> len then
              fail step "allow_entry spans (%d,%d), asked (%d,%d)"
                e.Process.a_addr e.Process.a_len addr len;
            (match e.Process.a_window with
            | None -> if len > 0 then fail step "no window for %d bytes" len
            | Some _ when len = 0 -> fail step "a window for a zero allow"
            | Some w ->
                let base = match region with `Ram -> ram_base | `Flash -> flash_base in
                let under =
                  match region with
                  | `Ram -> Process.ram_bytes p
                  | `Flash -> Process.flash_image p
                in
                Subslice.reset w;
                if Subslice.window w <> (addr - base, len) || Subslice.underlying w != under
                then fail step "window does not cover the allowed range");
            let old = Process.allow_swap p ~kind ~driver ~allow_num e in
            let want, allows =
              assoc_swap m.allows (kind, driver, allow_num) (addr, len) (0, 0)
            in
            m.allows <- allows;
            if (old.Process.a_addr, old.Process.a_len) <> want then
              fail step "allow swap returned (%d,%d), model (%d,%d)"
                old.Process.a_addr old.Process.a_len (fst want) (snd want)
          end;
          let cur = Process.allow_get p ~kind ~driver ~allow_num in
          let want =
            Option.value (List.assoc_opt (kind, driver, allow_num) m.allows)
              ~default:(0, 0)
          in
          if (cur.Process.a_addr, cur.Process.a_len) <> want then
            fail step "allow_get differs from the model"
      | Enqueue (driver, subscribe_num, x) ->
          let ok =
            Process.enqueue_upcall p ~driver ~subscribe_num ~args:(x, x + 1, x + 2)
          in
          let f, a =
            Option.value (List.assoc_opt (driver, subscribe_num) m.subs)
              ~default:(0, 0)
          in
          (* A null subscription swallows the upcall (the process awaits
             nothing directly here); a full queue drops and counts it. *)
          let want =
            if f = 0 then true
            else if List.length m.queue >= 16 then begin
              m.drops <- m.drops + 1;
              false
            end
            else begin
              m.queue <- m.queue @ [ (driver, subscribe_num, f, a, x) ];
              true
            end
          in
          if ok <> want then fail step "enqueue returned %b, model %b" ok want;
          if Process.upcalls_dropped p <> m.drops then fail step "drop count differs"
      | Pop ->
          let d = Process.pop_upcall p frame in
          (match m.queue with
          | [] -> check_pop step (d >= 0) None
          | ((drv, _, _, _, _) as u) :: rest ->
              check_pop step (d >= 0) (Some u);
              if d <> drv then fail step "popped driver %d, model %d" d drv;
              m.queue <- rest)
      | Pop_for (driver, subscribe_num) ->
          let got = Process.pop_upcall_for p ~driver ~subscribe_num frame in
          let rec pluck acc = function
            | [] -> (None, List.rev acc)
            | ((d, n, _, _, _) as u) :: rest when d = driver && n = subscribe_num ->
                (Some u, List.rev_append acc rest)
            | u :: rest -> pluck (u :: acc) rest
          in
          let want, rest = pluck [] m.queue in
          check_pop step got want;
          m.queue <- rest;
          if Process.has_upcall_for p ~driver ~subscribe_num
             <> List.exists (fun (d, n, _, _, _) -> d = driver && n = subscribe_num) rest
          then fail step "has_upcall_for differs"
      | Restart ->
          Process.reset_syscall_state p;
          m.subs <- [];
          m.allows <- [];
          m.queue <- []
      | Freeze_thaw -> (
          let img = freeze_tables p in
          check_tables ~step m img;
          match Process.thaw_patch p img with
          | Ok () -> ()
          | Error e -> fail step "thaw: %s" e))
    ops;
  (* The final tables, as freeze writes them. *)
  check_tables ~step:(List.length ops) m (freeze_tables p);
  true

let tables_prop =
  qcheck ~count:300
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    "process tables match the association-list model"
    QCheck2.Gen.(list_size (int_range 1 80) gen_op)
    run_ops

let suite = [ tables_prop ]
