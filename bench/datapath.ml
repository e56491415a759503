(* Data-plane fast-path benchmark: measures the primitives the rest of
   the simulator is built out of — emulated scalar memory access, the
   MPU check behind it, the crypto kernels, the syscall round trip, and
   the kernel's building blocks (Subslice windows, the ring buffer, the
   syscall codec, take cells, the event queue, allow-window setup, one
   kernel step) — and writes BENCH_datapath.json through [Harness].
   Gates:

   - emu read_u32/write_u32 allocate zero minor-heap words per op
     (Gc.minor_words, both modes);
   - AES block encrypt >= 3x over the byte-wise reference and SHA-256
     >= 1.5x over the textbook compression (full mode);
   - the MPU hit path performs no slot scans (Mpu.scan_count, both
     modes);
   - the syscall round trip on a live board: a bare LED command
     allocates <= 16 minor words, yield_no_wait <= 10, an allow-ro +
     unallow pair <= 24 and a subscribe + unsubscribe pair <= 24 (about
     twice what a bare command cost before the tables and the upcall
     queue stopped allocating: 62.5 and 37.5 words then), the allow pair
     over a range that changes every op (so the window is built each
     time) <= 40, and no call changes the size of the app's upcall
     table (Gc.minor_words and Emu.upcall_fn_count, both modes);
   - a 4-byte HMAC through the SHA engine allocates <= 120 minor words
     under a warm key (its midstates are reused) and <= 240 with two
     keys in turn (every op prepares its key; 371 before the engine
     kept midstates), both modes;
   - board construction allocates no per-board array straight in the
     major heap beyond the apps' memory: a fleet board (its three app
     mixes in turn) <= 3,000 such words per build and an 8-node radio
     group <= 12,000 (both modes; an eager flash page table and wear
     array cost 2,050 per board).

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
module Fleet = Tock_fleet.Fleet

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

(* ---- the syscall round trip on a live board ----

   A syscall can only be performed from app code, so the app runs each
   sample's loop itself through the harness; the bench steps the kernel
   until the app reports. Each op is a full round trip: Libtock, the
   trap, kernel dispatch, the resume, the decode. The board has no trace
   ring (like the root-of-trust boards), so no trace events are recorded
   on the path. Words are counted after the timed passes, in the steady
   state. *)

let syscall_round_trips h ~iters ~alloc_iters =
  let finished = ref false in
  let app a =
    let buf = Emu.get_buffer a ~tag:"rt" ~size:16 in
    let cb _ _ _ = () in
    let flip = ref false in
    (* name, words/op gate, op *)
    let ops =
      [
        ( "syscall/command-led",
          Some 16.,
          fun () ->
            ignore
              (Libtock.command a ~driver:Tock.Driver_num.led ~cmd:0 ~arg1:0
                 ~arg2:0) );
        ( "syscall/yield-no-wait",
          Some 10.,
          fun () -> ignore (Libtock.yield_no_wait a) );
        ( "syscall/allow-ro+unallow",
          Some 24.,
          fun () ->
            ignore
              (Libtock.allow_ro a ~driver:Tock.Driver_num.console ~num:1
                 ~addr:buf ~len:16);
            Libtock.unallow_ro a ~driver:Tock.Driver_num.console ~num:1 );
        (* The same pair over a range that alternates, so the key's last
           window never matches and every allow builds one. *)
        ( "syscall/allow-ro-alternating+unallow",
          Some 40.,
          fun () ->
            flip := not !flip;
            ignore
              (Libtock.allow_ro a ~driver:Tock.Driver_num.console ~num:1
                 ~addr:buf ~len:(if !flip then 16 else 8));
            Libtock.unallow_ro a ~driver:Tock.Driver_num.console ~num:1 );
        ( "syscall/subscribe+unsubscribe",
          Some 24.,
          fun () ->
            ignore (Libtock.subscribe a ~driver:Tock.Driver_num.alarm ~sub:0 cb);
            Libtock.unsubscribe a ~driver:Tock.Driver_num.alarm ~sub:0 );
      ]
    in
    List.iter
      (fun (name, words_gate, f) ->
        let calls, per_op = Harness.passes iters f in
        let before = Emu.upcall_fn_count a in
        let words = Harness.words alloc_iters f /. float_of_int alloc_iters in
        Harness.gate h (name ^ " upcall-table delta")
          (float_of_int (Emu.upcall_fn_count a - before))
          Harness.Eq 0.;
        Option.iter (Harness.gate h (name ^ " words/op") words Harness.Le) words_gate;
        ignore
          (Harness.add h ~fields:[ ("minor_words_per_op", Json.Num words) ] name
             ~iters ~calls per_op))
      ops;
    finished := true;
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
  while not !finished do
    ignore (Tock.Kernel.step k ~cap)
  done

(* ---- the digest engine ----

   One HMAC of a 4-byte challenge, the root-of-trust token's op, through
   the engine alone: set the key, feed, run, each completion fired and
   its interrupt serviced. With one key, every op after the first
   starts from the engine's cached midstates; with two keys of one
   length in turn, every op misses and prepares its key. *)

let bench_hmac h ~iters ~alloc_iters =
  let sim = Tock_hw.Sim.create ~trace_capacity:0 () in
  let irq = Tock_hw.Irq.create sim in
  let sha = Tock_hw.Sha_engine.create sim irq ~irq_line:6 ~cycles_per_block:80 in
  Tock_hw.Sha_engine.set_client sha (fun _ -> ());
  let key = Bytes.of_string "\x10\x32\x54\x76\x98\xba\xdc\xfe\x01\x23\x45\x67\x89\xab\xcd\xef" in
  let key' = Bytes.map (fun c -> Char.chr (Char.code c lxor 0xa5)) key in
  let msg = Bytes.of_string "\x01\x10\x00\x00" in
  let ok = function Ok () -> () | Error _ -> failwith "datapath: sha engine refused" in
  let settle () =
    while Tock_hw.Sim.advance_to_next_event sim do
      ()
    done;
    ignore (Tock_hw.Irq.service irq)
  in
  let mac key () =
    ok (Tock_hw.Sha_engine.set_mode_hmac sha ~key);
    ok (Tock_hw.Sha_engine.add_data sha msg ~off:0 ~len:4);
    settle ();
    ok (Tock_hw.Sha_engine.run sha);
    settle ()
  in
  let flip = ref false in
  let two_keys () =
    flip := not !flip;
    mac (if !flip then key' else key) ()
  in
  (* name, words/op gate, op *)
  List.iter
    (fun (name, limit, op) ->
      op ();
      let calls, per_op = Harness.passes iters op in
      let words = Harness.words alloc_iters op /. float_of_int alloc_iters in
      Harness.gate h (name ^ " words/op") words Harness.Le limit;
      ignore
        (Harness.add h ~fields:[ ("minor_words_per_op", Json.Num words) ] name
           ~iters ~calls per_op))
    [ ("digest/hmac-4B", 120., mac key); ("digest/hmac-4B-two-keys", 240., two_keys) ]

(* ---- board construction ----

   One build is everything the fleet does to put a board up, through the
   fleet's own recipe: a Sim, the chip, Board.build and the apps — fleet
   boards 0, 1 and 2 in turn (one of each app mix), or radio group 0 of
   an 8-board Signpost fleet. Each sample reports ns, minor words and
   words allocated straight in the major heap per build; the last are
   gated. *)

let build_board =
  let workloads = Fleet.build_workloads () in
  let idx = ref 0 in
  fun () ->
    idx := (!idx + 1) mod 3;
    Fleet.build_board Fleet.default workloads !idx

let build_radio8 () =
  Fleet.build_radio
    { Fleet.default with boards = 8; group_size = 8 }
    ~g:0

let bench_build h name ~iters ~alloc_iters ~limit build =
  let f () = ignore (Sys.opaque_identity (build ())) in
  let calls, per_op = Harness.passes iters f in
  let per_build words = words /. float_of_int alloc_iters in
  let minor = per_build (Harness.words alloc_iters f) in
  let direct = per_build (Harness.direct_major_words alloc_iters f) in
  Harness.gate h (name ^ " direct major words/build") direct Harness.Le limit;
  ignore
    (Harness.add h
       ~fields:
         [ ("minor_words_per_op", Json.Num minor);
           ("direct_major_words_per_op", Json.Num direct) ]
       name ~iters ~calls per_op)

let run_mode ~full ~scale =
  Printf.printf "== datapath: fast-path primitives (scale %.3f) ==\n" scale;
  let h = Harness.create ~full "datapath" in
  let it base = max 64 (int_of_float (float_of_int base *. scale)) in
  let time name iters f = Harness.time h name iters f in
  let speedup ~reference fast = Harness.ns_per_op reference /. Harness.ns_per_op fast in

  (* -- emulated scalar memory: speed plus the zero-alloc gate -- *)
  let app, buf = boot_app () in
  let n = it 2_000_000 in
  let read () = ignore (Emu.read_u32 app ~addr:buf) in
  let write_op () = Emu.write_u32 app ~addr:buf ~v:0xDEAD_BEEF in
  ignore (time "emu/read_u32" n read);
  ignore (time "emu/write_u32" n write_op);
  (* The float Gc.minor_words returns is itself counted, so the gate is a
     small constant independent of the loop length, which any per-op
     allocation would dwarf. *)
  let an = it 200_000 in
  Harness.gate h "emu/read_u32 words per loop" (Harness.words an read) Harness.Le 64.;
  Harness.gate h "emu/write_u32 words per loop" (Harness.words an write_op) Harness.Le 64.;

  (* -- MPU check: cache hit vs alternating-region miss -- *)
  let p, cfg, ram_base, flash_base = mpu_setup () in
  let hit () = ignore (Process.check_access p ~addr:(ram_base + 128) ~len:4 `Read) in
  (* Prime the cache, then count scans over the steady state. *)
  hit ();
  let scans0 = Mpu.scan_count cfg in
  let n = it 2_000_000 in
  ignore (time "mpu/check-hit" n hit);
  Harness.gate h "mpu/check-hit scans"
    (float_of_int (Mpu.scan_count cfg - scans0))
    Harness.Le 0.;
  let flip = ref false in
  let miss () =
    flip := not !flip;
    let addr = if !flip then flash_base + 64 else ram_base + 128 in
    ignore (Process.check_access p ~addr ~len:4 `Read)
  in
  let scans1 = Mpu.scan_count cfg in
  let miss_sample = time "mpu/check-miss" n miss in
  let miss_scans =
    float_of_int (Mpu.scan_count cfg - scans1) /. float_of_int miss_sample.Harness.calls
  in
  Printf.printf "   mpu/check-miss scans per op: %.2f\n" miss_scans;

  (* -- crypto kernels vs their byte-wise oracles -- *)
  let key = Aes.expand_key (Bytes.init 16 Char.chr) in
  let block = Bytes.init 16 (fun i -> Char.chr (255 - i)) in
  (* Each speedup gate times its two sides pass by pass in turn, so a
     slow phase of the host lands on both. *)
  let aes_fast, aes_ref =
    Harness.time_pair h ~rounds:Harness.reps
      ( "aes128/block-fast",
        it 200_000,
        fun () -> ignore (Aes.encrypt_block key block ~off:0) )
      ( "aes128/block-ref",
        it 20_000,
        fun () -> ignore (Aes.Reference.encrypt_block key block ~off:0) )
  in
  Harness.gate h ~mode:Harness.Full_only "aes128 speedup"
    (speedup ~reference:aes_ref aes_fast)
    Harness.Ge 3.;
  (* The gated quantity is the compression function itself, so measure
     it per-block through the exposed hooks; the 4kB digests below are
     supplementary end-to-end samples. Both variants mutate the same
     context's chaining state, which is exactly the production access
     pattern. *)
  let st = Sha.init () in
  let blk = Bytes.init 64 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let sha_fast, sha_ref =
    Harness.time_pair h ~rounds:Harness.reps
      ("sha256/compress-fast", it 200_000, fun () -> Sha.compress st blk ~off:0)
      ("sha256/compress-ref", it 50_000, fun () -> Sha.Reference.compress st blk ~off:0)
  in
  Harness.gate h ~mode:Harness.Full_only "sha256 speedup"
    (speedup ~reference:sha_ref sha_fast)
    Harness.Ge 1.5;
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  ignore (time "sha256/4kB-fast" (it 2_000) (fun () -> ignore (Sha.digest_bytes data)));
  ignore
    (time "sha256/4kB-ref" (it 1_000) (fun () -> ignore (Sha.Reference.digest_bytes data)));
  let frame = Bytes.init 111 (fun i -> Char.chr ((i * 7) land 0xff)) in
  bench_hmac h ~iters:(it 100_000) ~alloc_iters:(max 1_000 (it 20_000));
  let crc_fast =
    time "crc16/frame-fast" (it 500_000) (fun () ->
        ignore (Tock.Crc16.digest frame ~off:0 ~len:111))
  in
  let crc_ref =
    time "crc16/frame-ref" (it 100_000) (fun () ->
        ignore (Tock.Crc16.Reference.digest frame ~off:0 ~len:111))
  in

  (* -- the syscall round trip: speed, words and table size -- *)
  syscall_round_trips h ~iters:(it 200_000) ~alloc_iters:(max 5_000 (it 200_000));

  (* -- kernel building blocks: windows, queues, the syscall codec -- *)
  let sub = Tock.Subslice.create 4096 in
  ignore
    (time "subslice/slice+reset" (it 2_000_000) (fun () ->
         Tock.Subslice.reset sub;
         Tock.Subslice.slice sub ~pos:8 ~len:4000;
         Tock.Subslice.set_u8 sub 0 1;
         Tock.Subslice.reset sub));
  let ring = Tock.Ring_buffer.create ~capacity:16 ~width:1 in
  ignore
    (time "ring/push+pop" (it 2_000_000) (fun () ->
         let o = Tock.Ring_buffer.push ring in
         (Tock.Ring_buffer.data ring).(o) <- 1;
         Tock.Ring_buffer.remove ring 0));
  let call = Tock.Syscall.Command { driver = 1; command_num = 2; arg1 = 3; arg2 = 4 } in
  ignore
    (time "syscall/encode+decode" (it 2_000_000) (fun () ->
         ignore (Tock.Syscall.decode_call (Tock.Syscall.encode_call call))));
  (* The kernel's return path: encode into the per-process scratch
     buffer, then decode as the process would. *)
  let ret = Tock.Syscall.Success_u32_u32 (7, 9) and scratch = Array.make 4 0 in
  ignore
    (time "syscall/ret-in-place" (it 2_000_000) (fun () ->
         Tock.Syscall.encode_ret_into ret scratch;
         ignore (Tock.Syscall.decode_ret scratch)));
  let cell = Tock.Cells.Take_cell.make 42 in
  ignore
    (time "take_cell/map" (it 2_000_000) (fun () ->
         ignore (Tock.Cells.Take_cell.map cell (fun v -> v + 1))));
  let q = Tock_hw.Event_queue.create () and now = ref 0 in
  ignore
    (time "event_queue/schedule+pop" (it 1_000_000) (fun () ->
         incr now;
         ignore (Tock_hw.Event_queue.schedule q ~time:!now ignore);
         ignore (Tock_hw.Event_queue.pop_due q ~now:!now)));
  (* Sift cost with a realistically full queue (timer mux + peripherals
     across a fleet board): 256 standing events, later than any time the
     loop reaches. *)
  let deep = Tock_hw.Event_queue.create () and now = ref 0 in
  for i = 1 to 256 do
    ignore (Tock_hw.Event_queue.schedule deep ~time:((1 lsl 40) + i) ignore)
  done;
  ignore
    (time "event_queue/256-pending" (it 500_000) (fun () ->
         incr now;
         ignore (Tock_hw.Event_queue.schedule deep ~time:!now ignore);
         ignore (Tock_hw.Event_queue.run_due deep ~now:!now)));
  (* The per-allow cost the zero-copy path moved to syscall time, on a
     miss: resolve the range against process memory, build the
     base-bounded window, swap it into the allow table. The length
     alternates, so the key's last window never spans the new range. *)
  let flip = ref false in
  ignore
    (time "allow/window-setup" (it 500_000) (fun () ->
         flip := not !flip;
         let len = if !flip then 128 else 64 in
         let e =
           Process.allow_entry p ~kind:`Ro ~driver:1 ~allow_num:0
             ~addr:(ram_base + 64) ~len
         in
         if e.Process.a_len < 0 then failwith "datapath: allow window setup failed";
         ignore (Process.allow_swap p ~kind:`Ro ~driver:1 ~allow_num:0 e)));
  (* One full simulated kernel step, including a process slice. *)
  let board = Tock_boards.Board.build (Tock_hw.Chip.sam4l_like (Tock_hw.Sim.create ())) in
  ignore (Tock_boards.Board.add_app board ~name:"spin" Tock_userland.Apps.spinner);
  let k = board.Tock_boards.Board.kernel and cap = board.Tock_boards.Board.main_cap in
  ignore (time "kernel/step(spinner)" (it 200_000) (fun () -> ignore (Tock.Kernel.step k ~cap)));

  (* -- board construction: time, words and the eager-array gate -- *)
  bench_build h "board/build" ~iters:(it 2_000) ~alloc_iters:(max 20 (it 500))
    ~limit:3_000. build_board;
  bench_build h "board/build-radio8" ~iters:(it 300) ~alloc_iters:(max 5 (it 100))
    ~limit:12_000. build_radio8;

  Harness.finish h
    ~facts:
      [
        ("crc16_speedup", Json.Num (speedup ~reference:crc_ref crc_fast));
        ("mpu_miss_scans_per_op", Json.Num miss_scans);
      ]
    ()

let run () = run_mode ~full:true ~scale:1.0

(* Tiny iteration counts for `dune runtest`: exercises the zero-alloc
   and no-scan invariants on every test run, but not the host-dependent
   speedup ratios. *)
let run_smoke () = run_mode ~full:false ~scale:0.001
