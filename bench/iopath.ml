(* Zero-copy I/O path benchmark: drives the allow-window data plane end
   to end — console writes through the UART mux, net transmit through the
   radio's scatter-gather path, and KV puts/gets through the flash iovec
   path — plus batched vs byte-wise UART transmit, and writes
   BENCH_iopath.json through [Harness]. Gates:

   - a console write performs ZERO data-plane copies between the syscall
     and the hardware (the Subslice and Emu copy counters, both modes);
   - the net transmit fast path performs ZERO data-plane copies from
     [send] to the radio latch (both modes);
   - a KV get performs ZERO copies: [Kv_store.get_sub] hands back a
     window onto flash (both modes);
   - the in-place net round trip returns the bytes of the retained
     copying [Net_stack.Reference] path (both modes) and sustains >= 2x
     its throughput, the two paths timed pass by pass in turn (full
     mode).

   Run: dune exec bench/main.exe -- iopath
   The `iopath-smoke` variant runs tiny iteration counts under
   `dune runtest` so the copy invariants (not the host-dependent ratio)
   are exercised on every test run. *)

open Tock
module Emu = Tock_userland.Emu
module Libtock = Tock_userland.Libtock
module Libtock_sync = Tock_userland.Libtock_sync
module Net = Tock_capsules.Net_stack
module Kv = Tock_capsules.Kv_store
module Signpost = Tock_boards.Signpost_board

(* ---- console write: syscall -> allow window -> UART, no staging ---- *)

(* The app issues repeated console writes over one allowed buffer and
   gates the worst-case copy-counter delta it observed across a whole
   write (syscall, capsule, mux, hardware, completion upcall). The first
   write is outside the harness: boot-time debug output may still be
   draining through the shared UART. *)
let console_app h ~iters finished app =
  let payload = String.make 32 'x' in
  let len = String.length payload in
  let addr = Emu.get_buffer app ~tag:"iopath-tx" ~size:64 in
  Emu.write_string app ~addr payload;
  (match Libtock.allow_ro app ~driver:Driver_num.console ~num:1 ~addr ~len with
  | Ok _ -> ()
  | Error e -> raise (Emu.App_panic_exn (Error.to_string e)));
  let write () =
    match
      Libtock_sync.call_classic app ~driver:Driver_num.console ~sub:1 ~cmd:1
        ~arg1:len ~arg2:0
    with
    | Ok _ -> ()
    | Error e -> raise (Emu.App_panic_exn (Error.to_string e))
  in
  write ();
  let max_sub = ref 0 and max_emu = ref 0 in
  ignore
    (Harness.time h "console/write-32B" iters (fun () ->
         let s0 = Subslice.copy_count () and e0 = Emu.copy_count () in
         write ();
         max_sub := max !max_sub (Subslice.copy_count () - s0);
         max_emu := max !max_emu (Emu.copy_count () - e0)));
  Harness.gate h "console/write-32B subslice copies" (float_of_int !max_sub) Harness.Le 0.;
  Harness.gate h "console/write-32B emu copies" (float_of_int !max_emu) Harness.Le 0.;
  finished := true;
  Libtock.exit app 0

let bench_console h ~iters =
  let finished = ref false in
  let sim = Tock_hw.Sim.create () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  ignore
    (Tock_boards.Board.add_app board ~name:"iopath-con"
       (console_app h ~iters finished));
  Tock_boards.Board.run_to_completion board ~max_cycles:4_000_000_000 ();
  if not !finished then failwith "iopath: console bench app did not finish"

(* ---- net transmit: send -> compose -> radio gather, no staging ---- *)

(* Broadcast sends resolve on transmit completion with no ack exchange,
   so each op — one send, then the world run to quiescence — covers
   exactly the tx fast path: allow-window framing, incremental CRC, and
   the radio's DMA gather. *)
let bench_net_tx h ~iters =
  let world = Signpost.create ~nodes:2 () in
  let a = (List.hd world.Signpost.nodes).Signpost.node_board in
  let sa = Option.get a.Tock_boards.Board.net in
  Net.start sa;
  let payload = Bytes.make 64 'p' in
  let send_one () =
    match Net.send sa ~dest:0xFFFF payload ~on_result:(fun _ -> ()) with
    | Ok () -> Signpost.run_all world ~max_cycles:50_000_000
    | Error e -> failwith ("iopath: net send: " ^ Error.to_string e)
  in
  (* warmup: boot-time debug output may still be draining *)
  send_one ();
  let max_delta = ref 0 in
  ignore
    (Harness.time h "net/tx-64B-broadcast" iters (fun () ->
         let s0 = Subslice.copy_count () in
         send_one ();
         max_delta := max !max_delta (Subslice.copy_count () - s0)));
  Harness.gate h "net/tx-64B-broadcast copies" (float_of_int !max_delta) Harness.Le 0.

(* ---- net round trip: in-place vs the copying reference ---- *)

let bench_round_trip h ~fast_iters ~ref_iters =
  let payload = Bytes.init Net.max_payload (fun i -> Char.chr (i land 0xff)) in
  let out_fast = Bytes.create Net.max_payload in
  let out_ref = Bytes.create Net.max_payload in
  let payload_w = Subslice.of_bytes payload in
  let out_w = Subslice.of_bytes out_fast in
  let fast, reference =
    Harness.time_pair h ~rounds:Harness.reps
      ( "net/round-trip-fast",
        fast_iters,
        fun () ->
          if Net.round_trip ~src:1 ~dst:2 payload_w out_w <> Net.max_payload then
            failwith "iopath: fast round trip failed" )
      ( "net/round-trip-ref",
        ref_iters,
        fun () ->
          if Net.Reference.round_trip ~src:1 ~dst:2 payload out_ref <> Net.max_payload
          then failwith "iopath: reference round trip failed" )
  in
  let differing = ref 0 in
  Bytes.iteri (fun i c -> if Bytes.get out_ref i <> c then incr differing) out_fast;
  Harness.gate h "net/round-trip bytes unlike reference" (float_of_int !differing)
    Harness.Eq 0.;
  Harness.gate h ~mode:Harness.Full_only "net/round-trip speedup"
    (Harness.ns_per_op reference /. Harness.ns_per_op fast)
    Harness.Ge 2.

(* ---- kv store: scatter-gather put, windowed get ---- *)

let bench_kv h ~iters =
  let sim = Tock_hw.Sim.create () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let kernel = Kernel.create chip in
  (* otock-lint: allow mint-confinement — the bench harness is the board
     main loop for this standalone kernel, same role as lib/boards *)
  let cap = Capability.Trusted_mint.main_loop () in
  let flash_hil = Adaptors.flash chip.Tock_hw.Chip.flash in
  let kv = Kv.create kernel flash_hil ~first_page:0 ~pages:8 in
  let wait result =
    ignore
      (Kernel.run_until kernel ~cap ~max_cycles:2_000_000_000 (fun () ->
           !result <> None));
    match !result with
    | Some r -> r
    | None -> failwith "iopath: kv operation did not complete"
  in
  let key = Bytes.of_string "bench-key" in
  let value = Subslice.of_bytes (Bytes.make 64 'v') in
  let put () =
    let r = ref None in
    Kv.set_sub kv ~key ~value (fun x -> r := Some x);
    match wait r with
    | Ok () -> ()
    | Error e -> failwith ("iopath: kv put: " ^ Error.to_string e)
  in
  let get () =
    let r = ref None in
    Kv.get_sub kv ~key (fun x -> r := Some x);
    match wait r with
    | Ok (Some _) -> ()
    | Ok None -> failwith "iopath: kv get: key missing"
    | Error e -> failwith ("iopath: kv get: " ^ Error.to_string e)
  in
  put ();
  ignore (Harness.time h "kv/put-64B" iters put);
  let s0 = Subslice.copy_count () in
  let gets = Harness.time h "kv/get-64B" iters get in
  Harness.gate h "kv/get-64B copies per op"
    (float_of_int (Subslice.copy_count () - s0) /. float_of_int gets.Harness.calls)
    Harness.Le 0.

(* ---- UART transmit: one gathered transfer vs byte-wise ---- *)

(* The same 64 bytes as one scatter-gather operation (one schedule, one
   interrupt) versus 64 single-byte transmits (the pre-batching console
   drain pattern). *)
let bench_uart h ~batched_iters ~bytewise_iters =
  let sim = Tock_hw.Sim.create () in
  let irq = Tock_hw.Irq.create sim in
  let u = Tock_hw.Uart.create sim irq ~irq_line:0 ~name:"iopath-uart" in
  Tock_hw.Uart.set_tx_sink u (fun _ -> ());
  let drain () =
    while Tock_hw.Sim.advance_to_next_event sim do () done;
    ignore (Tock_hw.Irq.service irq)
  in
  let check = function
    | Ok () -> ()
    | Error e -> failwith ("iopath: uart: " ^ Tock_hw.Completion.text e)
  in
  let segs = [ (Bytes.make 64 'b', 0, 64) ] and byte = Bytes.make 1 'b' in
  ignore
    (Harness.time h "uart/tx-64B-batched" batched_iters (fun () ->
         check (Tock_hw.Uart.transmit_segs u segs);
         drain ()));
  ignore
    (Harness.time h "uart/tx-64B-bytewise" bytewise_iters (fun () ->
         for _ = 1 to 64 do
           check (Tock_hw.Uart.transmit u byte ~len:1);
           drain ()
         done))

(* ---- driver ---- *)

let run_mode ~full ~scale =
  Printf.printf "== iopath: zero-copy allow I/O path (scale %.3f) ==\n" scale;
  let h = Harness.create ~full "iopath" in
  let it base = max 2 (int_of_float (float_of_int base *. scale)) in
  bench_console h ~iters:(it 2_000);
  bench_net_tx h ~iters:(it 2_000);
  bench_round_trip h ~fast_iters:(it 500_000) ~ref_iters:(it 100_000);
  bench_kv h ~iters:(it 300);
  bench_uart h ~batched_iters:(it 50_000) ~bytewise_iters:(it 2_000);
  Harness.finish h ()

let run () = run_mode ~full:true ~scale:1.0

(* Tiny iteration counts for `dune runtest`: the zero-copy invariants are
   asserted on every test run; the host-dependent throughput ratio is
   not. *)
let run_smoke () = run_mode ~full:false ~scale:0.002
