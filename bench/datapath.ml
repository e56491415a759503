(* Data-plane fast-path benchmark: measures the primitives the rest of
   the simulator is built out of — emulated scalar memory access, the
   MPU check behind it, and the crypto kernels — and writes
   BENCH_datapath.json for the acceptance gate:

   - emu read_u32/write_u32 allocate zero minor-heap words per op
     (asserted via Gc.minor_words, both modes);
   - AES block encrypt >= 3x over the byte-wise reference and SHA-256
     >= 1.5x over the textbook compression (asserted in full mode);
   - the MPU hit path performs no slot scans (asserted via
     Mpu.scan_count, both modes);
   - the syscall round trip on a live board: a bare LED command
     allocates <= 16 minor words and yield_no_wait <= 10, and a
     subscribe + unsubscribe pair leaves the app's upcall table the size
     it was (asserted via Gc.minor_words and Emu.upcall_fn_count, both
     modes).

   Run: dune exec bench/main.exe -- datapath
   The `datapath-smoke` variant runs tiny iteration counts under
   `dune runtest` so the invariants (not the host-dependent ratios) are
   exercised on every test run. *)

module Emu = Tock_userland.Emu
module Libtock = Tock_userland.Libtock
module Mpu = Tock_hw.Mpu
module Process = Tock.Process
module Aes = Tock_crypto.Aes128
module Sha = Tock_crypto.Sha256
module Net = Tock_capsules.Net_stack

(* ---- a live app to bench emulated memory through ---- *)

(* The app stashes its handle and a pre-allocated scratch buffer, then
   spins. get_buffer may issue a brk syscall, so it must run inside the
   effect handler (i.e. here); the benched scalar accesses perform no
   effects and are safe to call from outside once the handle escapes. *)
let stash : (Emu.app * int) option ref = ref None

let bench_app app =
  let addr = Emu.get_buffer app ~tag:"bench" ~size:64 in
  stash := Some (app, addr);
  let rec spin () =
    Emu.work app 1000;
    spin ()
  in
  spin ()

let boot_app () =
  let sim = Tock_hw.Sim.create () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  ignore (Tock_boards.Board.add_app board ~name:"dp-bench" bench_app);
  let k = board.Tock_boards.Board.kernel in
  let cap = board.Tock_boards.Board.main_cap in
  let steps = ref 0 in
  while !stash = None do
    incr steps;
    if !steps > 10_000 then failwith "datapath: bench app did not start";
    ignore (Tock.Kernel.step k ~cap)
  done;
  Option.get !stash

let emu_context = lazy (boot_app ())

(* ---- a standalone process for the MPU-check benches ---- *)

(* Built directly (not through the kernel) so we hold the mpu_config and
   can read its scan counter. Flash is a second readable region, so
   alternating RAM/flash reads thrashes the per-kind range cache. *)
let mpu_setup () =
  let mpu = Mpu.create Mpu.Cortex_m in
  let cfg = Mpu.new_config mpu in
  let flash_base = 0x0004_0000 and flash_size = 2048 in
  (match
     Mpu.allocate_region mpu cfg ~unallocated_start:flash_base
       ~unallocated_size:flash_size ~min_size:flash_size Mpu.rx
   with
  | Some _ -> ()
  | None -> failwith "datapath: flash region allocation failed");
  match
    Mpu.allocate_app_memory_region mpu cfg ~unallocated_start:0x2000_0000
      ~unallocated_size:65_536 ~min_memory_size:8_192
      ~initial_app_memory_size:4_096 ~initial_kernel_memory_size:1_024
  with
  | None -> failwith "datapath: app memory allocation failed"
  | Some (block_start, _block_size) ->
      let p =
        Process.create ~id:9_999 ~name:"dp-mpu" ~ram_base:block_start
          ~ram_size:8_192
          ~initial_app_break:(block_start + 4_096)
          ~flash_base
          ~flash:(Bytes.create flash_size)
          ~mpu ~mpu_config:cfg ~permissions:None ~storage:None ~tbf_flags:0
      in
      (p, cfg, block_start, flash_base)

let mpu_context = lazy (mpu_setup ())

(* ---- measurement helpers ---- *)

(* Min-of-reps: the host is noisy (other tenants, frequency scaling),
   and the minimum over a few timed passes is a far more stable
   estimate of the achievable per-op cost than any single pass. *)
let time_ns f n =
  for _ = 1 to min n 1_000 do
    f ()
  done;
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    let t1 = Unix.gettimeofday () in
    let ns = (t1 -. t0) *. 1e9 /. float_of_int n in
    if ns < !best then best := ns
  done;
  !best

(* Minor words allocated by [n] calls of [f]. The boxed float returned
   by the first Gc.minor_words call is itself counted (a few words), so
   callers assert the delta is below a small constant independent of
   [n], which any per-op allocation would dwarf. *)
let alloc_words f n =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

type sample = { s_name : string; s_ns : float; s_iters : int }

let json_of_sample s =
  Printf.sprintf "    {\"name\": \"%s\", \"ns_per_op\": %.2f, \"iters\": %d}"
    s.s_name s.s_ns s.s_iters

(* ---- the syscall round trip on a live board ----

   A syscall can only be performed from app code, so the app runs each
   sample's loop itself, with the same timing and Gc helpers; the bench
   steps the kernel until the app reports. Each op is a full round trip:
   Libtock, the trap, kernel dispatch, the resume, the decode. The board
   has no trace ring (like the root-of-trust boards), so no trace events
   are recorded on the path. *)

type round_trip = {
  rt_name : string;
  rt_ns : float;
  rt_words : float; (* minor words per op *)
  rt_iters : int;
  rt_table_delta : int; (* upcall-table entries gained over the op loop *)
}

let syscall_round_trips ~n_time ~n_alloc =
  let report = ref None in
  let app a =
    let buf = Emu.get_buffer a ~tag:"rt" ~size:16 in
    let cb _ _ _ = () in
    let ops =
      [
        ( "syscall/command-led",
          fun () ->
            ignore
              (Libtock.command a ~driver:Tock.Driver_num.led ~cmd:0 ~arg1:0
                 ~arg2:0) );
        ("syscall/yield-no-wait", fun () -> ignore (Libtock.yield_no_wait a));
        ( "syscall/allow-ro+unallow",
          fun () ->
            ignore
              (Libtock.allow_ro a ~driver:Tock.Driver_num.console ~num:1
                 ~addr:buf ~len:16);
            Libtock.unallow_ro a ~driver:Tock.Driver_num.console ~num:1 );
        ( "syscall/subscribe+unsubscribe",
          fun () ->
            ignore (Libtock.subscribe a ~driver:Tock.Driver_num.alarm ~sub:0 cb);
            Libtock.unsubscribe a ~driver:Tock.Driver_num.alarm ~sub:0 );
      ]
    in
    report :=
      Some
        (List.map
           (fun (rt_name, f) ->
             let rt_ns = time_ns f n_time in
             let before = Emu.upcall_fn_count a in
             let words = alloc_words f n_alloc in
             {
               rt_name;
               rt_ns;
               rt_words = words /. float_of_int n_alloc;
               rt_iters = n_time;
               rt_table_delta = Emu.upcall_fn_count a - before;
             })
           ops);
    let rec spin () =
      Emu.work a 1000;
      spin ()
    in
    spin ()
  in
  let sim = Tock_hw.Sim.create ~trace_capacity:0 () in
  let board = Tock_boards.Board.build (Tock_hw.Chip.sam4l_like sim) in
  ignore (Tock_boards.Board.add_app board ~name:"rt-bench" app);
  let k = board.Tock_boards.Board.kernel in
  let cap = board.Tock_boards.Board.main_cap in
  while !report = None do
    ignore (Tock.Kernel.step k ~cap)
  done;
  Option.get !report

let json_of_round_trip r =
  Printf.sprintf
    "    {\"name\": \"%s\", \"ns_per_op\": %.2f, \"minor_words_per_op\": \
     %.2f, \"iters\": %d}"
    r.rt_name r.rt_ns r.rt_words r.rt_iters

(* Gates: words per op for the two cheapest calls, and a subscribe that
   does not grow the upcall table. *)
let check_round_trips rts =
  let words name =
    (List.find (fun r -> r.rt_name = name) rts).rt_words
  in
  let gate name limit =
    let w = words name in
    if w > limit then
      failwith
        (Printf.sprintf "datapath: %s allocated %.1f words/op (gate <= %.0f)"
           name w limit)
  in
  gate "syscall/command-led" 16.;
  gate "syscall/yield-no-wait" 10.;
  List.iter
    (fun r ->
      if r.rt_table_delta <> 0 then
        failwith
          (Printf.sprintf "datapath: %s left %+d upcall-table entries"
             r.rt_name r.rt_table_delta))
    rts

let run_mode ~scale ~assert_ratios ~write () =
  Printf.printf "== datapath: fast-path primitives (scale %.3f) ==\n" scale;
  let it base = max 64 (int_of_float (float_of_int base *. scale)) in
  let samples = ref [] in
  let note name ns iters =
    samples := { s_name = name; s_ns = ns; s_iters = iters } :: !samples;
    Printf.printf "   %-24s %12.1f ns/op\n%!" name ns
  in

  (* -- emulated scalar memory: speed plus the zero-alloc gate -- *)
  let app, buf = Lazy.force emu_context in
  let n = it 2_000_000 in
  let read () = ignore (Emu.read_u32 app ~addr:buf) in
  let write_op () = Emu.write_u32 app ~addr:buf ~v:0xDEAD_BEEF in
  note "emu/read_u32" (time_ns read n) n;
  note "emu/write_u32" (time_ns write_op n) n;
  let an = it 200_000 in
  let read_alloc = alloc_words read an in
  let write_alloc = alloc_words write_op an in
  Printf.printf "   emu scalar alloc: read %.0f w / write %.0f w over %d ops\n"
    read_alloc write_alloc an;
  if read_alloc > 64. || write_alloc > 64. then
    failwith "datapath: emu scalar access allocated on the minor heap";

  (* -- MPU check: cache hit vs alternating-region miss -- *)
  let p, cfg, ram_base, flash_base = Lazy.force mpu_context in
  let hit () = ignore (Process.check_access p ~addr:(ram_base + 128) ~len:4 `Read) in
  (* Prime the cache, then count scans over the steady state. *)
  hit ();
  let scans0 = Mpu.scan_count cfg in
  let n = it 2_000_000 in
  note "mpu/check-hit" (time_ns hit n) n;
  let hit_scans = Mpu.scan_count cfg - scans0 in
  if hit_scans > 0 then
    failwith
      (Printf.sprintf "datapath: MPU hit path scanned %d times" hit_scans);
  let flip = ref false in
  let miss () =
    flip := not !flip;
    let addr = if !flip then flash_base + 64 else ram_base + 128 in
    ignore (Process.check_access p ~addr ~len:4 `Read)
  in
  let scans1 = Mpu.scan_count cfg in
  note "mpu/check-miss" (time_ns miss n) n;
  let miss_scans = Mpu.scan_count cfg - scans1 in
  Printf.printf "   mpu scans: hit 0, miss %d (over %d timed+warmup ops)\n"
    miss_scans (n + min n 1_000);

  (* -- crypto kernels vs their byte-wise oracles -- *)
  let key = Aes.expand_key (Bytes.init 16 Char.chr) in
  let block = Bytes.init 16 (fun i -> Char.chr (255 - i)) in
  let n_fast = it 200_000 and n_ref = it 20_000 in
  let aes_fast = time_ns (fun () -> ignore (Aes.encrypt_block key block ~off:0)) n_fast in
  let aes_ref =
    time_ns (fun () -> ignore (Aes.Reference.encrypt_block key block ~off:0)) n_ref
  in
  note "aes128/block-fast" aes_fast n_fast;
  note "aes128/block-ref" aes_ref n_ref;
  (* The gated quantity is the compression function itself, so measure
     it per-block through the exposed hooks; the 4kB digests below are
     supplementary end-to-end samples. Both variants mutate the same
     context's chaining state, which is exactly the production access
     pattern. *)
  let st = Sha.init () in
  let blk = Bytes.init 64 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let n_fast = it 200_000 and n_ref = it 50_000 in
  let sha_fast = time_ns (fun () -> Sha.compress st blk ~off:0) n_fast in
  let sha_ref = time_ns (fun () -> Sha.Reference.compress st blk ~off:0) n_ref in
  note "sha256/compress-fast" sha_fast n_fast;
  note "sha256/compress-ref" sha_ref n_ref;
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let n_d = it 2_000 and n_dref = it 1_000 in
  note "sha256/4kB-fast" (time_ns (fun () -> ignore (Sha.digest_bytes data)) n_d) n_d;
  note "sha256/4kB-ref"
    (time_ns (fun () -> ignore (Sha.Reference.digest_bytes data)) n_dref)
    n_dref;
  let frame = Bytes.init 111 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let n_fast = it 500_000 and n_ref = it 100_000 in
  let crc_fast =
    time_ns (fun () -> ignore (Net.crc16 frame ~off:0 ~len:111)) n_fast
  in
  let crc_ref =
    time_ns (fun () -> ignore (Net.crc16_ref frame ~off:0 ~len:111)) n_ref
  in
  note "crc16/frame-fast" crc_fast n_fast;
  note "crc16/frame-ref" crc_ref n_ref;

  (* -- the syscall round trip: speed, words and table size -- *)
  let rts =
    syscall_round_trips ~n_time:(it 200_000) ~n_alloc:(max 5_000 (it 200_000))
  in
  List.iter
    (fun r ->
      Printf.printf "   %-30s %8.1f ns/op %6.1f words/op\n%!" r.rt_name r.rt_ns
        r.rt_words)
    rts;
  check_round_trips rts;

  let aes_speedup = aes_ref /. aes_fast in
  let sha_speedup = sha_ref /. sha_fast in
  let crc_speedup = crc_ref /. crc_fast in
  Printf.printf
    "   speedups: aes %.2fx (gate >= 3x), sha256 %.2fx (gate >= 1.5x), \
     crc16 %.2fx\n"
    aes_speedup sha_speedup crc_speedup;
  if assert_ratios then begin
    if aes_speedup < 3.0 then
      failwith "datapath: AES T-table speedup below 3x gate";
    if sha_speedup < 1.5 then
      failwith "datapath: SHA-256 fast-compress speedup below 1.5x gate"
  end;

  if write then begin
    let oc = open_out "BENCH_datapath.json" in
    Printf.fprintf oc
      "{\n  \"bench\": \"datapath\",\n  \"aes_block_speedup\": %.2f,\n  \
       \"sha256_speedup\": %.2f,\n  \"crc16_speedup\": %.2f,\n  \
       \"emu_read_u32_alloc_words\": %.0f,\n  \
       \"emu_write_u32_alloc_words\": %.0f,\n  \"mpu_hit_scans\": %d,\n  \
       \"mpu_miss_scans\": %d,\n  \"samples\": [\n%s\n  ],\n  \
       \"syscall_round_trips\": [\n%s\n  ]\n}\n"
      aes_speedup sha_speedup crc_speedup read_alloc write_alloc hit_scans
      miss_scans
      (String.concat ",\n" (List.rev_map json_of_sample !samples))
      (String.concat ",\n" (List.map json_of_round_trip rts));
    close_out oc;
    print_endline "   wrote BENCH_datapath.json"
  end;
  print_newline ()

let run () = run_mode ~scale:1.0 ~assert_ratios:true ~write:true ()

(* Tiny iteration counts for `dune runtest`: exercises the zero-alloc
   and no-scan invariants on every test run, but not the host-dependent
   speedup ratios. *)
let run_smoke () = run_mode ~scale:0.001 ~assert_ratios:false ~write:false ()
