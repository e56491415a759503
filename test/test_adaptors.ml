(* The trusted adaptor layer: split-phase buffer-ownership protocol over
   every peripheral, and the virtualizers (UART, SPI, flash muxes). *)

open! Helpers
open Tock

let setup () =
  let sim = Tock_hw.Sim.create () in
  let irq = Tock_hw.Irq.create sim in
  (sim, irq)

let pump sim irq =
  let rec go guard =
    if guard > 0 && Tock_hw.Sim.advance_to_next_event sim then begin
      ignore (Tock_hw.Irq.service irq);
      go (guard - 1)
    end
  in
  go 100_000

let test_uart_adaptor_ownership () =
  let sim, irq = setup () in
  let hw = Tock_hw.Uart.create sim irq ~irq_line:1 ~name:"u" in
  let u = Adaptors.uart hw in
  let buf = Subslice.of_bytes (Bytes.of_string "payload") in
  let returned = ref None in
  u.Hil.uart_set_transmit_client (fun sub -> returned := Some sub);
  (match u.Hil.uart_transmit buf with Ok () -> () | Error (e, _) -> Alcotest.failf "%s" (Error.to_string e));
  (* While in flight, a second transmit is BUSY and the buffer comes
     straight back in the error. *)
  let other = Subslice.of_bytes (Bytes.of_string "other") in
  (match u.Hil.uart_transmit other with
  | Error (Error.BUSY, b) -> Alcotest.(check bool) "same buffer back" true (b == other)
  | _ -> Alcotest.fail "expected BUSY with buffer");
  pump sim irq;
  (match !returned with
  | Some sub -> Alcotest.(check bool) "original buffer returned" true (sub == buf)
  | None -> Alcotest.fail "no completion");
  (* After completion the adaptor accepts work again. *)
  match u.Hil.uart_transmit other with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "adaptor did not release"

let test_uart_adaptor_receive () =
  let sim, irq = setup () in
  let hw = Tock_hw.Uart.create sim irq ~irq_line:1 ~name:"u" in
  let u = Adaptors.uart hw in
  let got = ref None in
  u.Hil.uart_set_receive_client (fun sub -> got := Some (Subslice.to_bytes sub));
  let buf = Subslice.create 4 in
  (match u.Hil.uart_receive buf with Ok () -> () | Error (e, _) -> Alcotest.failf "%s" (Error.to_string e));
  Tock_hw.Uart.rx_inject hw (Bytes.of_string "wxyz!");
  pump sim irq;
  match !got with
  | Some b -> Alcotest.(check string) "window filled" "wxyz" (Bytes.to_string b)
  | None -> Alcotest.fail "no rx completion"

let test_digest_adaptor_chunks () =
  let sim, irq = setup () in
  let hw = Tock_hw.Sha_engine.create sim irq ~irq_line:2 ~cycles_per_block:10 in
  let d = Adaptors.digest hw in
  let digest = ref None in
  d.Hil.digest_set_digest_client (fun b -> digest := Some b);
  let data = Bytes.of_string "hello digest engine" in
  (match d.Hil.digest_set_mode Hil.D_sha256 with Ok () -> () | Error e -> Alcotest.failf "%s" (Error.to_string e));
  (* Feed in two chunks through the adaptor's ownership protocol. *)
  let continue_feed = ref (Some 1) in
  d.Hil.digest_set_data_client (fun sub ->
      match !continue_feed with
      | Some 1 ->
          continue_feed := None;
          Subslice.reset sub;
          let s2 = Subslice.of_bytes data in
          Subslice.slice_from s2 10;
          (match d.Hil.digest_add_data s2 with
          | Ok () -> ()
          | Error (e, _) -> Alcotest.failf "chunk2: %s" (Error.to_string e))
      | _ -> (
          match d.Hil.digest_run () with
          | Ok () -> ()
          | Error e -> Alcotest.failf "run: %s" (Error.to_string e)))
  ;
  let s1 = Subslice.of_bytes data in
  Subslice.slice_to s1 10;
  (match d.Hil.digest_add_data s1 with Ok () -> () | Error (e, _) -> Alcotest.failf "%s" (Error.to_string e));
  pump sim irq;
  match !digest with
  | Some b ->
      Alcotest.(check string) "chunked == one-shot"
        (hex (Tock_crypto.Sha256.digest_bytes data))
        (hex b)
  | None -> Alcotest.fail "no digest"

let test_flash_mux_serializes () =
  let sim, irq = setup () in
  let hw =
    Tock_hw.Flash_ctrl.create sim irq ~irq_line:3 ~pages:8 ~page_size:64
      ~read_cycles:10 ~write_cycles:50 ~erase_cycles:100
  in
  let mux = Tock_capsules.Flash_mux.create (Adaptors.flash hw) in
  let c1 = Tock_capsules.Flash_mux.new_client mux in
  let c2 = Tock_capsules.Flash_mux.new_client mux in
  let order = ref [] in
  c1.Hil.flash_set_client (fun ev ->
      match ev with `Write_done _ -> order := "c1w" :: !order | _ -> ());
  c2.Hil.flash_set_client (fun ev ->
      match ev with
      | `Erase_done -> order := "c2e" :: !order
      | `Read_done _ -> order := "c2r" :: !order
      | _ -> ());
  (* Enqueue from both clients while the device is busy. *)
  let page_img = Subslice.create 64 in
  (match c1.Hil.flash_write ~page:0 page_img with Ok () -> () | Error _ -> Alcotest.fail "w");
  (match c2.Hil.flash_erase ~page:1 with Ok () -> () | Error _ -> Alcotest.fail "e");
  (match c2.Hil.flash_read ~page:0 with Ok () -> () | Error _ -> Alcotest.fail "r");
  Alcotest.(check bool) "ops queued" true (Tock_capsules.Flash_mux.queue_depth mux >= 1);
  pump sim irq;
  Alcotest.(check (list string)) "arrival order preserved" [ "c1w"; "c2e"; "c2r" ]
    (List.rev !order)

let test_spi_mux_serializes () =
  let sim, irq = setup () in
  let spi =
    Tock_hw.Spi.create sim irq ~irq_line:4 ~cs_capability:Tock_hw.Spi.Configurable
      ~cycles_per_byte:4
  in
  ignore (Tock_hw.Spi.add_device spi ~cs:0 ~requires:Tock_hw.Spi.Active_low
            ~transfer:(fun tx -> Bytes.map (fun c -> Char.uppercase_ascii c) tx));
  ignore (Tock_hw.Spi.add_device spi ~cs:1 ~requires:Tock_hw.Spi.Active_low
            ~transfer:(fun tx -> tx));
  let mux = Tock_capsules.Spi_mux.create () in
  let d0 = Tock_capsules.Spi_mux.virtualize mux (Adaptors.spi_device spi ~cs:0) in
  let d1 = Tock_capsules.Spi_mux.virtualize mux (Adaptors.spi_device spi ~cs:1) in
  let results = ref [] in
  d0.Hil.spi_set_client (fun sub -> results := ("d0", Bytes.to_string (Subslice.to_bytes sub)) :: !results);
  d1.Hil.spi_set_client (fun sub -> results := ("d1", Bytes.to_string (Subslice.to_bytes sub)) :: !results);
  (match d0.Hil.spi_transfer (Subslice.of_bytes (Bytes.of_string "ab")) with
  | Ok () -> () | Error _ -> Alcotest.fail "t0");
  (match d1.Hil.spi_transfer (Subslice.of_bytes (Bytes.of_string "cd")) with
  | Ok () -> () | Error _ -> Alcotest.fail "t1");
  pump sim irq;
  Alcotest.(check (list (pair string string))) "both completed in order"
    [ ("d0", "AB"); ("d1", "cd") ]
    (List.rev !results)

let test_uart_mux_queues_writers () =
  let sim, irq = setup () in
  let hw = Tock_hw.Uart.create sim irq ~irq_line:1 ~name:"u" in
  let sent = Buffer.create 32 in
  Tock_hw.Uart.set_tx_sink hw (fun b -> Buffer.add_bytes sent b);
  let mux = Tock_capsules.Uart_mux.create (Adaptors.uart hw) in
  let d1 = Tock_capsules.Uart_mux.new_device mux in
  let d2 = Tock_capsules.Uart_mux.new_device mux in
  (match Tock_capsules.Uart_mux.transmit d1 (Subslice.of_bytes (Bytes.of_string "one ")) with
  | Ok () -> () | Error _ -> Alcotest.fail "t1");
  (match Tock_capsules.Uart_mux.transmit d2 (Subslice.of_bytes (Bytes.of_string "two")) with
  | Ok () -> () | Error _ -> Alcotest.fail "t2");
  (* Same device double-queue is refused. *)
  (match Tock_capsules.Uart_mux.transmit d1 (Subslice.of_bytes (Bytes.of_string "x")) with
  | Error (Error.BUSY, _) -> ()
  | _ -> Alcotest.fail "double queue accepted");
  pump sim irq;
  Alcotest.(check string) "serialized in order" "one two" (Buffer.contents sent)

let test_pke_adaptor_rejects_garbage () =
  let sim, irq = setup () in
  let hw = Tock_hw.Pke_engine.create sim irq ~irq_line:5 ~cycles_per_verify:100 in
  let pke = Adaptors.pke hw in
  match
    pke.Hil.pke_verify ~pubkey:(Bytes.make 3 'x') ~msg:(Bytes.of_string "m")
      ~signature:(Bytes.make 16 's')
  with
  | Error Error.INVAL -> ()
  | _ -> Alcotest.fail "malformed key must be INVAL"

(* A second operation on an engine with one in flight answers BUSY,
   whichever engine refuses it: key or IV mid-crypt, digest mode or
   finalize mid-chunk, a verify or a sample while one runs. *)
let test_busy_engines_answer_busy () =
  let sim, irq = setup () in
  let ok what = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)
  in
  let busy what = function
    | Error Error.BUSY -> ()
    | Ok () -> Alcotest.failf "%s accepted while busy" what
    | Error e -> Alcotest.failf "%s: %s, not BUSY" what (Error.to_string e)
  in
  let started what = function
    | Ok () -> ()
    | Error (e, _) -> Alcotest.failf "%s: %s" what (Error.to_string e)
  in
  let aes =
    Adaptors.aes
      (Tock_hw.Aes_engine.create sim irq ~irq_line:1 ~cycles_per_block:10)
  in
  let key = Bytes.make 16 'k' and iv = Bytes.make 16 'i' in
  ok "aes_set_key" (aes.Hil.aes_set_key key);
  started "aes_crypt" (aes.Hil.aes_crypt Hil.A_ctr (Subslice.create 16));
  busy "aes_set_key" (aes.Hil.aes_set_key key);
  busy "aes_set_iv" (aes.Hil.aes_set_iv iv);
  let digest =
    Adaptors.digest
      (Tock_hw.Sha_engine.create sim irq ~irq_line:2 ~cycles_per_block:10)
  in
  started "digest_add_data" (digest.Hil.digest_add_data (Subslice.create 64));
  busy "digest_run" (digest.Hil.digest_run ());
  busy "digest_set_mode" (digest.Hil.digest_set_mode Hil.D_sha256);
  let pke =
    Adaptors.pke
      (Tock_hw.Pke_engine.create sim irq ~irq_line:3 ~cycles_per_verify:100)
  in
  let rng = Tock_crypto.Prng.create ~seed:7L in
  let sk, pk = Tock_crypto.Schnorr.keypair rng in
  let msg = Bytes.of_string "m" in
  let verify () =
    pke.Hil.pke_verify
      ~pubkey:(Tock_crypto.Schnorr.public_key_to_bytes pk)
      ~msg
      ~signature:
        (Tock_crypto.Schnorr.signature_to_bytes
           (Tock_crypto.Schnorr.sign sk rng msg))
  in
  ok "pke_verify" (verify ());
  busy "pke_verify" (verify ());
  let adc =
    Adaptors.adc
      (Tock_hw.Adc.create sim irq ~irq_line:4
         ~channels:[| (fun _ -> 0) |]
         ~cycles_per_sample:10)
  in
  ok "adc_sample" (adc.Hil.adc_sample ~channel:0);
  busy "adc_sample" (adc.Hil.adc_sample ~channel:0);
  (* Once the operations complete, every engine accepts work again. *)
  pump sim irq;
  ok "aes_set_iv after" (aes.Hil.aes_set_iv iv);
  ok "digest_set_mode after" (digest.Hil.digest_set_mode Hil.D_sha256);
  ok "pke_verify after" (verify ());
  ok "adc_sample after" (adc.Hil.adc_sample ~channel:0)

let suite =
  [
    Alcotest.test_case "uart ownership protocol" `Quick test_uart_adaptor_ownership;
    Alcotest.test_case "uart receive window" `Quick test_uart_adaptor_receive;
    Alcotest.test_case "digest chunk protocol" `Quick test_digest_adaptor_chunks;
    Alcotest.test_case "flash mux serializes" `Quick test_flash_mux_serializes;
    Alcotest.test_case "spi mux serializes" `Quick test_spi_mux_serializes;
    Alcotest.test_case "uart mux queues writers" `Quick test_uart_mux_queues_writers;
    Alcotest.test_case "pke rejects garbage" `Quick test_pke_adaptor_rejects_garbage;
    Alcotest.test_case "busy engines answer BUSY" `Quick
      test_busy_engines_answer_busy;
  ]
