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
  u.Hil.uart_set_receive_client (fun sub r -> got := Some (Subslice.to_bytes sub, r));
  let buf = Subslice.create 4 in
  (match u.Hil.uart_receive buf with Ok () -> () | Error (e, _) -> Alcotest.failf "%s" (Error.to_string e));
  Tock_hw.Uart.rx_inject hw (Bytes.of_string "wxyz!");
  pump sim irq;
  match !got with
  | Some (b, Ok ()) -> Alcotest.(check string) "window filled" "wxyz" (Bytes.to_string b)
  | Some (_, Error e) -> Alcotest.failf "rx completion %s" (Error.to_string e)
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

(* Two devices on one bus with no virtualizer: a second device's
   transaction, started once the first one's completion has fired but
   before its top half has run, is refused BUSY with its buffer back,
   and the first device alone is called, with its own bytes. *)
let test_i2c_devices_share_one_bus () =
  let sim, irq = setup () in
  let bus = Tock_hw.I2c.create sim irq ~irq_line:4 ~cycles_per_byte:20 in
  let dev addr c =
    Tock_hw.I2c.add_device bus ~addr ~on_write:ignore ~on_read:(fun n -> Bytes.make n c);
    Adaptors.i2c_device bus ~addr
  in
  let a = dev 0x42 'A' and b = dev 0x43 'B' in
  let got = ref [] in
  let note who = function
    | Ok s | Error (_, s) -> got := (who, Bytes.to_string (Subslice.to_bytes s)) :: !got
  in
  a.Hil.i2c_set_client (note "a");
  b.Hil.i2c_set_client (note "b");
  (match a.Hil.i2c_read (Subslice.create 2) with
  | Ok () -> ()
  | Error (e, _) -> Alcotest.failf "a: %s" (Error.to_string e));
  ignore (Tock_hw.Sim.advance_to_next_event sim);
  let w = Subslice.create 2 in
  (match b.Hil.i2c_write w with
  | Error (Error.BUSY, s) -> Alcotest.(check bool) "b's buffer back" true (s == w)
  | Ok () -> Alcotest.fail "b's write accepted before a's top half"
  | Error (e, _) -> Alcotest.failf "b: %s, not BUSY" (Error.to_string e));
  ignore (Tock_hw.Irq.service irq);
  pump sim irq;
  Alcotest.(check (list (pair string string))) "a alone called" [ ("a", "AA") ] !got

(* Every refusal an adaptor can return, with its code. Each row drives
   one [Hil] operation on fresh hardware into one refusal and reads the
   code it answers; a refused buffer must come back in the [Error]. A
   malformed segment or range cannot come from a window, so those rows
   check the engine's refusal itself, its class and its text. *)
let test_busy_engines_answer_busy () =
  let module Hw = Tock_hw in
  let hw () = setup () in
  let code = function Ok () -> None | Error e -> Some e in
  (* The code of a refused buffer-moving op, which must hand [buf] back. *)
  let back buf = function
    | Ok () -> None
    | Error (e, b) ->
        if b != buf then Alcotest.failf "%s: buffer not returned" (Error.to_string e);
        Some e
  in
  let sub n = Subslice.create n in
  (* [op] twice on one record: the second while the first is in flight. *)
  let twice op =
    ignore (op (sub 8));
    let s = sub 8 in
    back s (op s)
  in
  let aes_hw () =
    let sim, irq = hw () in
    Hw.Aes_engine.create sim irq ~irq_line:1 ~cycles_per_block:10
  in
  let sha_hw () =
    let sim, irq = hw () in
    Hw.Sha_engine.create sim irq ~irq_line:2 ~cycles_per_block:10
  in
  let flash_hw () =
    let sim, irq = hw () in
    Hw.Flash_ctrl.create sim irq ~irq_line:6 ~pages:4 ~page_size:64 ~read_cycles:10
      ~write_cycles:50 ~erase_cycles:100
  in
  let uart_hw () =
    let sim, irq = hw () in
    Hw.Uart.create sim irq ~irq_line:7 ~name:"u"
  in
  let radio_hw () =
    let sim, irq = hw () in
    Hw.Radio.create (Hw.Radio.Ether.create sim ()) irq ~irq_line:8 ~addr:0xA
  in
  let spi_hw () =
    let sim, irq = hw () in
    Hw.Spi.create sim irq ~irq_line:9 ~cs_capability:Hw.Spi.Configurable ~cycles_per_byte:4
  in
  let i2c_hw () =
    let sim, irq = hw () in
    Hw.I2c.create sim irq ~irq_line:10 ~cycles_per_byte:4
  in
  let aes () = Adaptors.aes (aes_hw ()) in
  let keyed () =
    let a = aes () in
    ignore (a.Hil.aes_set_key (Bytes.make 16 'k'));
    a
  in
  let mid_crypt () =
    let a = keyed () in
    ignore (a.Hil.aes_crypt Hil.A_ctr (sub 16));
    a
  in
  let mid_chunk () =
    let d = Adaptors.digest (sha_hw ()) in
    ignore (d.Hil.digest_add_data (sub 64));
    d
  in
  let verify () =
    let sim, irq = hw () in
    let p = Adaptors.pke (Hw.Pke_engine.create sim irq ~irq_line:3 ~cycles_per_verify:100) in
    let rng = Tock_crypto.Prng.create ~seed:7L in
    let sk, pk = Tock_crypto.Schnorr.keypair rng in
    let msg = Bytes.of_string "m" in
    let signature = Tock_crypto.Schnorr.signature_to_bytes (Tock_crypto.Schnorr.sign sk rng msg) in
    fun () -> p.Hil.pke_verify ~pubkey:(Tock_crypto.Schnorr.public_key_to_bytes pk) ~msg ~signature
  in
  let adc () =
    let sim, irq = hw () in
    Adaptors.adc (Hw.Adc.create sim irq ~irq_line:4 ~channels:[| (fun _ -> 0) |] ~cycles_per_sample:10)
  in
  let entropy () =
    let sim, irq = hw () in
    Adaptors.entropy (Hw.Trng.create sim irq ~irq_line:5 ~cycles_per_word:10)
  in
  let flash () = Adaptors.flash (flash_hw ()) in
  let mid_erase () =
    let f = flash () in
    ignore (f.Hil.flash_erase ~page:0);
    f
  in
  let uart () = Adaptors.uart (uart_hw ()) in
  let radio () = Adaptors.radio (radio_hw ()) in
  let i2c () = Adaptors.i2c_device (i2c_hw ()) ~addr:0x42 in
  (* Both ops through one [spi_device]/[i2c_device] view, or the second
     through another view of the same controller. *)
  let spi_twice ~views =
    let hw = spi_hw () in
    let a = Adaptors.spi_device hw ~cs:0 in
    let b = if views = 1 then a else Adaptors.spi_device hw ~cs:1 in
    ignore (a.Hil.spi_transfer (sub 4));
    let s = sub 4 in
    back s (b.Hil.spi_transfer s)
  in
  let i2c_twice ~views =
    let hw = i2c_hw () in
    let a = Adaptors.i2c_device hw ~addr:0x42 in
    let b = if views = 1 then a else Adaptors.i2c_device hw ~addr:0x43 in
    ignore (a.Hil.i2c_read (sub 2));
    let s = sub 2 in
    back s (b.Hil.i2c_write s)
  in
  let program f ~page ~off =
    let iov = [| sub 4 |] in
    back iov (f.Hil.flash_program ~page ~off iov)
  in
  let write f ~page n =
    let s = sub n in
    back s (f.Hil.flash_write ~page s)
  in
  let rows =
    [
      (* A second operation while one is in flight. *)
      ("aes_set_key mid-crypt", Error.BUSY,
       fun () -> code ((mid_crypt ()).Hil.aes_set_key (Bytes.make 16 'k')));
      ("aes_set_iv mid-crypt", Error.BUSY,
       fun () -> code ((mid_crypt ()).Hil.aes_set_iv (Bytes.make 16 'i')));
      ("aes_crypt mid-crypt", Error.BUSY, fun () -> twice ((keyed ()).Hil.aes_crypt Hil.A_ctr));
      ("digest_set_mode mid-chunk", Error.BUSY,
       fun () -> code ((mid_chunk ()).Hil.digest_set_mode Hil.D_sha256));
      ("digest_run mid-chunk", Error.BUSY, fun () -> code ((mid_chunk ()).Hil.digest_run ()));
      ("digest_add_data mid-chunk", Error.BUSY,
       fun () -> twice (Adaptors.digest (sha_hw ())).Hil.digest_add_data);
      ("pke_verify mid-verify", Error.BUSY,
       fun () ->
         let v = verify () in
         ignore (v ());
         code (v ()));
      ("adc_sample mid-sample", Error.BUSY,
       fun () ->
         let a = adc () in
         ignore (a.Hil.adc_sample ~channel:0);
         code (a.Hil.adc_sample ~channel:0));
      ("entropy_request mid-request", Error.BUSY,
       fun () ->
         let e = entropy () in
         ignore (e.Hil.entropy_request ~count:1);
         code (e.Hil.entropy_request ~count:1));
      ("flash_read mid-erase", Error.BUSY, fun () -> code ((mid_erase ()).Hil.flash_read ~page:1));
      ("flash_erase mid-erase", Error.BUSY, fun () -> code ((mid_erase ()).Hil.flash_erase ~page:1));
      ("flash_write mid-erase", Error.BUSY, fun () -> write (mid_erase ()) ~page:1 64);
      ("flash_program mid-erase", Error.BUSY, fun () -> program (mid_erase ()) ~page:1 ~off:0);
      ("flash_program mid-write", Error.BUSY,
       fun () ->
         let f = flash () in
         ignore (f.Hil.flash_write ~page:0 (sub 64));
         program f ~page:1 ~off:0);
      ("uart_transmit mid-transmit", Error.BUSY, fun () -> twice (uart ()).Hil.uart_transmit);
      ("uart_receive mid-receive", Error.BUSY, fun () -> twice (uart ()).Hil.uart_receive);
      ("radio_transmit_iov mid-transmit", Error.BUSY,
       fun () ->
         let r = radio () in
         ignore (r.Hil.radio_transmit_iov ~dest:0xB [| sub 4 |]);
         let iov = [| sub 4 |] in
         back iov (r.Hil.radio_transmit_iov ~dest:0xB iov));
      ("spi_transfer mid-transfer, same view", Error.BUSY, fun () -> spi_twice ~views:1);
      ("spi_transfer mid-transfer, other view", Error.BUSY, fun () -> spi_twice ~views:2);
      ("i2c_write mid-read, same device", Error.BUSY, fun () -> i2c_twice ~views:1);
      ("i2c_write mid-read, other device", Error.BUSY, fun () -> i2c_twice ~views:2);
      (* A malformed request. *)
      ("adc_sample bad channel", Error.INVAL, fun () -> code ((adc ()).Hil.adc_sample ~channel:1));
      ("entropy_request 0 words", Error.INVAL,
       fun () -> code ((entropy ()).Hil.entropy_request ~count:0));
      ("aes_set_key 15 bytes", Error.INVAL,
       fun () -> code ((aes ()).Hil.aes_set_key (Bytes.make 15 'k')));
      ("aes_set_iv 15 bytes", Error.INVAL,
       fun () -> code ((aes ()).Hil.aes_set_iv (Bytes.make 15 'i')));
      ("aes_crypt no key", Error.INVAL,
       fun () ->
         let s = sub 16 in
         back s ((aes ()).Hil.aes_crypt Hil.A_ctr s));
      ("aes_crypt ECB 15 bytes", Error.INVAL,
       fun () ->
         let s = sub 15 in
         back s ((keyed ()).Hil.aes_crypt Hil.A_ecb_encrypt s));
      ("flash_read bad page", Error.INVAL, fun () -> code ((flash ()).Hil.flash_read ~page:4));
      ("flash_erase bad page", Error.INVAL, fun () -> code ((flash ()).Hil.flash_erase ~page:4));
      ("flash_write bad page", Error.INVAL, fun () -> write (flash ()) ~page:4 64);
      ("flash_write window shorter than a page", Error.INVAL, fun () -> write (flash ()) ~page:0 63);
      ("flash_write window longer than a page", Error.INVAL, fun () -> write (flash ()) ~page:0 65);
      ("flash_program bad page", Error.INVAL, fun () -> program (flash ()) ~page:4 ~off:0);
      ("flash_program past the page", Error.INVAL, fun () -> program (flash ()) ~page:0 ~off:61);
      ("uart_receive empty window", Error.INVAL,
       fun () ->
         let s = sub 0 in
         back s ((uart ()).Hil.uart_receive s));
      ("i2c_read empty window", Error.INVAL,
       fun () ->
         let s = sub 0 in
         back s ((i2c ()).Hil.i2c_read s));
      ("i2c_write_read empty window", Error.INVAL,
       fun () ->
         let s = sub 0 in
         back s ((i2c ()).Hil.i2c_write_read ~write_len:0 s));
      (* More than the device takes. *)
      ("radio_transmit_iov 128-byte frame", Error.SIZE,
       fun () ->
         let iov = [| sub 100; sub 28 |] in
         back iov ((radio ()).Hil.radio_transmit_iov ~dest:0xB iov));
    ]
  in
  let wrong =
    List.filter_map
      (fun (what, want, row) ->
        match row () with
        | Some got when got = want -> None
        | Some got -> Some (Printf.sprintf "%s: %s, not %s" what (Error.to_string got) (Error.to_string want))
        | None -> Some (Printf.sprintf "%s: accepted, not %s" what (Error.to_string want)))
      rows
  in
  if wrong <> [] then Alcotest.fail (String.concat "\n" wrong);
  (* Malformed segments and ranges, read off the engines: all [Invalid]. *)
  let refusal =
    Alcotest.testable (fun ppf r -> Format.pp_print_string ppf (Hw.Completion.text r)) ( = )
  in
  List.iter
    (fun (what, text, r) ->
      Alcotest.(check (result unit refusal)) what (Error (Hw.Completion.Invalid text)) r)
    [
      ("radio bad segment", "bad segment",
       Hw.Radio.transmit_segs (radio_hw ()) ~dest:0xB [ (Bytes.create 2, 1, 2) ]);
      ("uart bad segment", "bad length", Hw.Uart.transmit_segs (uart_hw ()) [ (Bytes.create 2, -1, 1) ]);
      ("flash program bad segment", "bad segment",
       Hw.Flash_ctrl.program_region (flash_hw ()) ~page:0 ~off:0 [ (Bytes.create 2, 2, 1) ]);
      ("flash write bad segment", "bad page buffer size",
       Hw.Flash_ctrl.write_page (flash_hw ()) ~page:0 [ (Bytes.create 64, 1, 64) ]);
      ("spi bad segment", "bad length", Hw.Spi.read_write (spi_hw ()) ~cs:0 [ (Bytes.create 2, 0, 3) ]);
      ("i2c bad segment", "bad segment", Hw.I2c.write (i2c_hw ()) ~addr:0x42 [ (Bytes.create 2, 0, -1) ]);
      ("sha bad range", "bad range", Hw.Sha_engine.add_data (sha_hw ()) (Bytes.create 4) ~off:2 ~len:4);
      ("aes bad range", "bad range",
       Hw.Aes_engine.crypt (aes_hw ()) ~mode:Hw.Aes_engine.Ctr ~src:(Bytes.create 4) ~off:3 ~len:2);
    ];
  (* Once the operations complete, every engine accepts work again. *)
  let sim, irq = hw () in
  let ok what = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)
  in
  let a = Adaptors.aes (Hw.Aes_engine.create sim irq ~irq_line:1 ~cycles_per_block:10) in
  ok "aes_set_key" (a.Hil.aes_set_key (Bytes.make 16 'k'));
  (match a.Hil.aes_crypt Hil.A_ctr (sub 16) with Ok () -> () | Error _ -> Alcotest.fail "aes_crypt");
  let d = Adaptors.digest (Hw.Sha_engine.create sim irq ~irq_line:2 ~cycles_per_block:10) in
  (match d.Hil.digest_add_data (sub 64) with Ok () -> () | Error _ -> Alcotest.fail "digest_add_data");
  let p = Adaptors.pke (Hw.Pke_engine.create sim irq ~irq_line:3 ~cycles_per_verify:100) in
  let rng = Tock_crypto.Prng.create ~seed:7L in
  let sk, pk = Tock_crypto.Schnorr.keypair rng in
  let msg = Bytes.of_string "m" in
  let signature = Tock_crypto.Schnorr.signature_to_bytes (Tock_crypto.Schnorr.sign sk rng msg) in
  let verify () = p.Hil.pke_verify ~pubkey:(Tock_crypto.Schnorr.public_key_to_bytes pk) ~msg ~signature in
  ok "pke_verify" (verify ());
  let adc = Adaptors.adc (Hw.Adc.create sim irq ~irq_line:4 ~channels:[| (fun _ -> 0) |] ~cycles_per_sample:10) in
  ok "adc_sample" (adc.Hil.adc_sample ~channel:0);
  pump sim irq;
  ok "aes_set_iv after" (a.Hil.aes_set_iv (Bytes.make 16 'i'));
  ok "digest_set_mode after" (d.Hil.digest_set_mode Hil.D_sha256);
  ok "pke_verify after" (verify ());
  ok "adc_sample after" (adc.Hil.adc_sample ~channel:0)

(* ---- the split-phase contract, one property over every operation ---- *)

(* What one random case feeds every operation: the caller's bytes, the
   second operation's bytes, the byte the caller overwrites its buffer
   with once the operation has started, where its bytes split into two
   segments or windows, the random stepping (true: fire the next [Sim]
   event; false: service the pending interrupts), and which of the
   steps before the first operation's client call the second one comes
   at. *)
type input = {
  data : string;
  other : string;
  scribble : char;
  split : int;
  steps : bool list;
  second_at : int;
}

(* One operation on fresh hardware. [start] begins it with the caller's
   bytes; [again] issues a second operation and says whether it was
   refused with Busy/BUSY (through an adaptor: and its own buffer came
   back); [after] is what happens once it has started (the caller
   overwrites its buffer, bytes arrive from outside); [calls] counts
   client calls; [check] compares what the operation delivered with
   the bytes as they were at start (through an adaptor: and the client
   got the physically same buffer). *)
type case = {
  name : string;
  sim : Tock_hw.Sim.t;
  irq : Tock_hw.Irq.t;
  start : unit -> bool;
  again : unit -> bool;
  after : unit -> unit;
  calls : unit -> int;
  check : unit -> bool;
}

(* Service and fire events until nothing is pending or scheduled. *)
let rec settle sim irq =
  let serviced = Tock_hw.Irq.service irq in
  if Tock_hw.Sim.advance_to_next_event sim || serviced > 0 then settle sim irq

let step c fire =
  if fire then ignore (Tock_hw.Sim.advance_to_next_event c.sim)
  else ignore (Tock_hw.Irq.service c.irq)

(* How many points in [inp.steps] (before the first, between two, after
   the last) come before the operation's client call when it runs alone. *)
let in_flight inp case =
  let c = case () in
  ignore (c.start ());
  c.after ();
  let rec go n = function
    | _ when c.calls () > 0 -> n
    | [] -> n + 1
    | fire :: rest ->
        step c fire;
        go (n + 1) rest
  in
  go 0 inp.steps

(* Run the operation with the second one at a random one of those
   points: right after start, mid-flight, or with the completion raised
   and its top half not yet run. *)
let run_case inp case =
  let at = inp.second_at mod max 1 (in_flight inp case) in
  let c = case () in
  let started = c.start () in
  c.after ();
  let refused = ref false in
  List.iteri
    (fun i fire ->
      if i = at then refused := c.again ();
      step c fire)
    inp.steps;
  if at = List.length inp.steps then refused := c.again ();
  settle c.sim c.irq;
  started && !refused && c.calls () = 1 && c.check ()

let hw () =
  let sim = Tock_hw.Sim.create () in
  (sim, Tock_hw.Irq.create sim)

let recorder () =
  let seen = ref [] in
  ((fun x -> seen := x :: !seen), fun () -> List.rev !seen)

let busy = function Error (Tock_hw.Completion.Busy _) -> true | _ -> false

let busy_code = function Error Error.BUSY -> true | _ -> false

(* Refused with BUSY, and [buf] itself came back. *)
let busy_back buf = function Error (Error.BUSY, b) -> b == buf | _ -> false

let padded s = Bytes.of_string ("<" ^ s ^ ">")

(* [s] as two [(buf, off, len)] segments, each inside a larger buffer. *)
let segments s split =
  let n = String.length s in
  let k = split mod (n + 1) in
  [ (padded (String.sub s 0 k), 1, k); (padded (String.sub s k (n - k)), 1, n - k) ]

(* The caller overwriting its buffer(s) with [c]. *)
let fill c b () = Bytes.fill b 0 (Bytes.length b) c

let overwrite c segs () = List.iter (fun (b, _, _) -> fill c b ()) segs

let window s = Subslice.of_bytes_window (padded s) ~pos:1 ~len:(String.length s)

let windows s split =
  Array.of_list
    (List.map (fun (b, off, len) -> Subslice.of_bytes_window b ~pos:off ~len) (segments s split))

let page_of s = String.init 64 (fun i -> s.[i mod String.length s])

let page f n = Bytes.to_string (Tock_hw.Flash_ctrl.read_page_sync f ~page:n)

let erased = String.make 64 '\xff'

let programmed s ~off =
  String.init 64 (fun i -> if i >= off && i < off + String.length s then s.[i - off] else '\xff')

let key = Bytes.make 16 'k' and nonce = Bytes.make 16 'n'

let ctr s =
  Bytes.to_string
    (Tock_crypto.Aes128.ctr_transform (Tock_crypto.Aes128.expand_key key) ~nonce (Bytes.of_string s))

let sha s = Bytes.to_string (Tock_crypto.Sha256.digest_string s)

let xor s = String.map (fun c -> Char.chr (Char.code c lxor 0x5A)) s

let dev_read n = String.init n (fun i -> Char.chr (0x30 + i))

(* The engines under test, on one fresh [Sim] and [Irq]. *)
let adc_hw (sim, irq) =
  Tock_hw.Adc.create sim irq ~irq_line:1 ~channels:[| (fun _ -> 5); (fun _ -> 9) |]
    ~cycles_per_sample:40

let aes_hw (sim, irq) =
  let e = Tock_hw.Aes_engine.create sim irq ~irq_line:2 ~cycles_per_block:10 in
  ignore (Tock_hw.Aes_engine.set_key e key);
  ignore (Tock_hw.Aes_engine.set_iv e nonce);
  e

(* A flash controller holding [page_of d] on page 1. *)
let flash_hw (sim, irq) d =
  let f =
    Tock_hw.Flash_ctrl.create sim irq ~irq_line:3 ~pages:4 ~page_size:64 ~read_cycles:30
      ~write_cycles:400 ~erase_cycles:600
  in
  Tock_hw.Flash_ctrl.restore_page f ~page:1 (Bytes.of_string (page_of d));
  f

(* A bus with one device at 0x42, and the bytes written to it. *)
let i2c_hw (sim, irq) =
  let bus = Tock_hw.I2c.create sim irq ~irq_line:4 ~cycles_per_byte:20 in
  let wrote, writes = recorder () in
  Tock_hw.I2c.add_device bus ~addr:0x42
    ~on_write:(fun b -> wrote (Bytes.to_string b))
    ~on_read:(fun n -> Bytes.of_string (dev_read n));
  (bus, writes)

let pke_hw (sim, irq) = Tock_hw.Pke_engine.create sim irq ~irq_line:5 ~cycles_per_verify:900

let sha_hw (sim, irq) = Tock_hw.Sha_engine.create sim irq ~irq_line:6 ~cycles_per_block:16

(* A controller with one device on CS 0, and the bytes it was sent. *)
let spi_hw (sim, irq) =
  let spi =
    Tock_hw.Spi.create sim irq ~irq_line:7 ~cs_capability:Tock_hw.Spi.Configurable
      ~cycles_per_byte:8
  in
  let saw, seen = recorder () in
  ignore
    (Tock_hw.Spi.add_device spi ~cs:0 ~requires:Tock_hw.Spi.Active_low ~transfer:(fun tx ->
         saw (Bytes.to_string tx);
         Bytes.of_string (xor (Bytes.to_string tx))));
  (spi, seen)

let trng_hw (sim, irq) = Tock_hw.Trng.create sim irq ~irq_line:8 ~cycles_per_word:30

(* A UART, and the bytes it put on the wire. *)
let uart_hw (sim, irq) =
  let u = Tock_hw.Uart.create sim irq ~irq_line:9 ~name:"u" in
  let sent, sunk = recorder () in
  Tock_hw.Uart.set_tx_sink u (fun b -> sent (Bytes.to_string b));
  (u, sunk)

(* Radio 0xA, and the frames a listening radio 0xB heard. *)
let radio_hw (sim, irq) =
  let ether = Tock_hw.Radio.Ether.create sim () in
  let a = Tock_hw.Radio.create ether irq ~irq_line:10 ~addr:0xA in
  let b = Tock_hw.Radio.create ether irq ~irq_line:11 ~addr:0xB in
  let heard, frames = recorder () in
  Tock_hw.Radio.set_receive_client b (fun ~src p -> heard (src, Bytes.to_string p));
  Tock_hw.Radio.start_listening b;
  (a, frames)

let signer = lazy (Tock_crypto.Schnorr.keypair (Tock_crypto.Prng.create ~seed:0x5EEDL))

let signed s =
  let sk, pk = Lazy.force signer in
  let msg = Bytes.of_string s in
  (pk, msg, Tock_crypto.Schnorr.sign sk (Tock_crypto.Prng.create ~seed:1L) msg)

(* Every split-phase operation of every engine, with the caller's bytes
   as [inp] draws them. Each case builds its own hardware and buffers. *)
let engine_cases inp =
  let module H = Tock_hw in
  let d = inp.data and n = String.length inp.data in
  let mk name (sim, irq) ~start ~again ?(after = ignore) got check =
    { name; sim; irq; start = (fun () -> Result.is_ok (start ()));
      again = (fun () -> busy (again ())); after;
      calls = (fun () -> List.length (got ())); check = (fun () -> check (got ())) }
  in
  let flash h =
    let f = flash_hw h d in
    let note, got = recorder () in
    H.Flash_ctrl.set_client f note;
    (f, got)
  in
  let i2c h =
    let bus, writes = i2c_hw h in
    let note, got = recorder () in
    H.I2c.set_client bus (fun code rx -> note (code, Bytes.to_string rx));
    (bus, writes, got)
  in
  let uart h =
    let u, sunk = uart_hw h in
    let note, got = recorder () in
    H.Uart.set_transmit_client u (fun ~len -> note len);
    (u, sunk, got)
  in
  let segs () = segments d inp.split and others () = segments inp.other 0 in
  [
    (fun () ->
      let h = hw () in
      let e = adc_hw h in
      let note, got = recorder () in
      H.Adc.set_client e (fun ~channel ~value -> note (channel, value));
      mk "Adc.sample" h ~start:(fun () -> H.Adc.sample e ~channel:1)
        ~again:(fun () -> H.Adc.sample e ~channel:0) got (( = ) [ (1, 9) ]));
    (fun () ->
      let h = hw () in
      let e = aes_hw h in
      let note, got = recorder () in
      H.Aes_engine.set_client e (fun b -> note (Bytes.to_string b));
      let src = padded d in
      mk "Aes_engine.crypt" h
        ~start:(fun () -> H.Aes_engine.crypt e ~mode:H.Aes_engine.Ctr ~src ~off:1 ~len:n)
        ~again:(fun () -> H.Aes_engine.crypt e ~mode:H.Aes_engine.Ctr ~src ~off:0 ~len:1)
        ~after:(fill inp.scribble src)
        got (( = ) [ ctr d ]));
    (fun () ->
      let h = hw () in
      let f, got = flash h in
      let p = segments (page_of inp.other) inp.split in
      mk "Flash_ctrl.write_page" h
        ~start:(fun () -> H.Flash_ctrl.write_page f ~page:2 p)
        ~again:(fun () -> H.Flash_ctrl.write_page f ~page:3 (segments (page_of d) 0))
        ~after:(overwrite inp.scribble p)
        got (fun evs -> evs = [ H.Flash_ctrl.Write_done ] && page f 2 = page_of inp.other && page f 3 = erased));
    (fun () ->
      let h = hw () in
      let f, got = flash h in
      let segs = segs () and off = inp.split mod (64 - n + 1) in
      mk "Flash_ctrl.program_region" h
        ~start:(fun () -> H.Flash_ctrl.program_region f ~page:2 ~off segs)
        ~again:(fun () -> H.Flash_ctrl.program_region f ~page:3 ~off:0 (others ()))
        ~after:(overwrite inp.scribble segs)
        got (fun evs -> evs = [ H.Flash_ctrl.Program_done ] && page f 2 = programmed d ~off && page f 3 = erased));
    (fun () ->
      let h = hw () in
      let f, got = flash h in
      mk "Flash_ctrl.read_page" h
        ~start:(fun () -> H.Flash_ctrl.read_page f ~page:1)
        ~again:(fun () -> H.Flash_ctrl.read_page f ~page:2)
        got (( = ) [ H.Flash_ctrl.Read_done (Bytes.of_string (page_of d)) ]));
    (fun () ->
      let h = hw () in
      let f, got = flash h in
      mk "Flash_ctrl.erase_page" h
        ~start:(fun () -> H.Flash_ctrl.erase_page f ~page:1)
        ~again:(fun () -> H.Flash_ctrl.erase_page f ~page:2)
        got (fun evs -> evs = [ H.Flash_ctrl.Erase_done ] && page f 1 = erased));
    (fun () ->
      let h = hw () in
      let bus, writes, got = i2c h in
      let segs = segs () in
      mk "I2c.write" h
        ~start:(fun () -> H.I2c.write bus ~addr:0x42 segs)
        ~again:(fun () -> H.I2c.write bus ~addr:0x42 (others ()))
        ~after:(overwrite inp.scribble segs)
        got (fun r -> r = [ (H.I2c.Done, "") ] && writes () = [ d ]));
    (fun () ->
      let h = hw () in
      let bus, writes, got = i2c h in
      mk "I2c.read" h
        ~start:(fun () -> H.I2c.read bus ~addr:0x42 ~len:n)
        ~again:(fun () -> H.I2c.read bus ~addr:0x42 ~len:1)
        got (fun r -> r = [ (H.I2c.Done, dev_read n) ] && writes () = []));
    (fun () ->
      let h = hw () in
      let bus, writes, got = i2c h in
      let segs = segs () in
      mk "I2c.write_read" h
        ~start:(fun () -> H.I2c.write_read bus ~addr:0x42 segs ~read_len:3)
        ~again:(fun () -> H.I2c.write_read bus ~addr:0x42 (others ()) ~read_len:1)
        ~after:(overwrite inp.scribble segs)
        got (fun r -> r = [ (H.I2c.Done, dev_read 3) ] && writes () = [ d ]));
    (fun () ->
      let h = hw () in
      let e = pke_hw h in
      let note, got = recorder () in
      H.Pke_engine.set_client e note;
      let pk, msg, signature = signed d in
      mk "Pke_engine.verify" h
        ~start:(fun () -> H.Pke_engine.verify e ~pk ~msg ~signature)
        ~again:(fun () -> H.Pke_engine.verify e ~pk ~msg ~signature)
        ~after:(fill inp.scribble msg)
        got (( = ) [ true ]));
    (fun () ->
      let h = hw () in
      let e = sha_hw h in
      let note, got = recorder () and digests, digested = recorder () in
      (* Finalize from the chunk's completion, as the digest capsule does. *)
      H.Sha_engine.set_client e (function
        | H.Sha_engine.Data_done ->
            note ();
            ignore (H.Sha_engine.run e)
        | H.Sha_engine.Digest_done b -> digests (Bytes.to_string b));
      let src = padded d in
      mk "Sha_engine.add_data" h
        ~start:(fun () -> H.Sha_engine.add_data e src ~off:1 ~len:n)
        ~again:(fun () -> H.Sha_engine.add_data e src ~off:0 ~len:1)
        ~after:(fill inp.scribble src)
        got (fun r -> r = [ () ] && digested () = [ sha d ]));
    (fun () ->
      let ((sim, irq) as h) = hw () in
      let e = sha_hw h in
      ignore (H.Sha_engine.add_data e (Bytes.of_string d) ~off:0 ~len:n);
      pump sim irq;
      let note, got = recorder () in
      H.Sha_engine.set_client e (function
        | H.Sha_engine.Data_done -> note "data"
        | H.Sha_engine.Digest_done b -> note (Bytes.to_string b));
      mk "Sha_engine.run" h ~start:(fun () -> H.Sha_engine.run e)
        ~again:(fun () -> H.Sha_engine.run e) got (( = ) [ sha d ]));
    (fun () ->
      let h = hw () in
      let spi, seen = spi_hw h in
      let note, got = recorder () in
      H.Spi.set_client spi (fun ~rx -> note (Bytes.to_string rx));
      let segs = segs () in
      mk "Spi.read_write" h
        ~start:(fun () -> H.Spi.read_write spi ~cs:0 segs)
        ~again:(fun () -> H.Spi.read_write spi ~cs:0 (others ()))
        ~after:(overwrite inp.scribble segs)
        got (fun r -> r = [ xor d ] && seen () = [ d ]));
    (fun () ->
      let h = hw () in
      let e = trng_hw h in
      let note, got = recorder () in
      H.Trng.set_client e (fun w -> note (Array.length w));
      let count = 1 + (inp.split mod 4) in
      mk "Trng.request" h ~start:(fun () -> H.Trng.request e ~count)
        ~again:(fun () -> H.Trng.request e ~count:1) got (( = ) [ count ]));
    (fun () ->
      let h = hw () in
      let u, sunk, got = uart h in
      let segs = segs () in
      mk "Uart.transmit_segs" h
        ~start:(fun () -> H.Uart.transmit_segs u segs)
        ~again:(fun () -> H.Uart.transmit_segs u (others ()))
        ~after:(overwrite inp.scribble segs)
        got (fun r -> r = [ n ] && sunk () = [ d ]));
    (fun () ->
      let h = hw () in
      let u, sunk, got = uart h in
      let buf = Bytes.of_string (d ^ ">") in
      mk "Uart.transmit" h
        ~start:(fun () -> H.Uart.transmit u buf ~len:n)
        ~again:(fun () -> H.Uart.transmit u buf ~len:1)
        ~after:(fill inp.scribble buf)
        got (fun r -> r = [ n ] && sunk () = [ d ]));
    (fun () ->
      let h = hw () in
      let u, _ = uart_hw h in
      let note, got = recorder () in
      H.Uart.set_receive_client u (fun b -> note (Option.map Bytes.to_string b));
      mk "Uart.receive" h
        ~start:(fun () -> H.Uart.receive u ~len:n)
        ~again:(fun () -> H.Uart.receive u ~len:1)
        ~after:(fun () -> H.Uart.rx_inject u (Bytes.of_string d))
        got (( = ) [ Some d ]));
    (fun () ->
      let h = hw () in
      let a, frames = radio_hw h in
      let note, got = recorder () in
      H.Radio.set_transmit_client a note;
      let segs = segs () in
      mk "Radio.transmit_segs" h
        ~start:(fun () -> H.Radio.transmit_segs a ~dest:0xB segs)
        ~again:(fun () -> H.Radio.transmit_segs a ~dest:0xB (others ()))
        ~after:(overwrite inp.scribble segs)
        got (fun r -> r = [ () ] && frames () = [ (0xA, d) ]));
  ]

(* Every operation of every [Hil] record [Adaptors] builds that has one
   in flight (alarm and GPIO have none), with the caller's bytes as
   [inp] draws them. Each case builds its own hardware and windows. *)
let hil_cases inp =
  let module H = Tock_hw in
  let d = inp.data and n = String.length inp.data in
  let mk name (sim, irq) ~start ~again ?(after = ignore) got check =
    { name; sim; irq; start = (fun () -> Result.is_ok (start ())); again; after;
      calls = (fun () -> List.length (got ())); check = (fun () -> check (got ())) }
  in
  (* The physically same window came back, holding [s]. *)
  let same w s = function
    | [ w' ] -> w' == w && Bytes.to_string (Subslice.to_bytes w) = s
    | _ -> false
  in
  let one v = function [ v' ] -> v' == v | _ -> false in
  let scribble w () = Subslice.fill w inp.scribble in
  let scribbled = String.make n inp.scribble in
  let flash h =
    let hw = flash_hw h d in
    let f = Adaptors.flash hw in
    let note, got = recorder () in
    f.Hil.flash_set_client note;
    (hw, f, got)
  in
  let i2c h =
    let bus, writes = i2c_hw h in
    let dev = Adaptors.i2c_device bus ~addr:0x42 in
    let note, got = recorder () in
    dev.Hil.i2c_set_client (function Ok s | Error (_, s) -> note s);
    (bus, dev, writes, got)
  in
  let spi h =
    let spi, seen = spi_hw h in
    let dev = Adaptors.spi_device spi ~cs:0 in
    let note, got = recorder () in
    dev.Hil.spi_set_client note;
    (spi, dev, seen, got)
  in
  [
    (fun () ->
      let h = hw () in
      let hw, sunk = uart_hw h in
      let u = Adaptors.uart hw in
      let note, got = recorder () in
      u.Hil.uart_set_transmit_client note;
      let w = window d and w' = window inp.other in
      mk "uart_transmit" h
        ~start:(fun () -> u.Hil.uart_transmit w)
        ~again:(fun () -> busy_back w' (u.Hil.uart_transmit w'))
        ~after:(scribble w)
        got (fun r -> same w scribbled r && sunk () = [ d ]));
    (fun () ->
      let h = hw () in
      let hw, _ = uart_hw h in
      let u = Adaptors.uart hw in
      let note, got = recorder () in
      u.Hil.uart_set_receive_client (fun w r -> note (w, r));
      let rx = window (String.make n '?') and w' = window inp.other in
      mk "uart_receive" h
        ~start:(fun () -> u.Hil.uart_receive rx)
        ~again:(fun () -> busy_back w' (u.Hil.uart_receive w'))
        ~after:(fun () -> H.Uart.rx_inject hw (Bytes.of_string d))
        got (function [ (w, Ok ()) ] -> same rx d [ w ] | _ -> false));
    (fun () ->
      (* Abort instead of a second operation: it calls nobody itself;
         the receive ends with one later client call, the same window,
         untouched, and CANCEL; the bytes' arrival calls nobody. *)
      let h = hw () in
      let hw, _ = uart_hw h in
      let u = Adaptors.uart hw in
      let note, got = recorder () in
      u.Hil.uart_set_receive_client (fun w r -> note (w, r));
      let waiting = String.make n '?' in
      let rx = window waiting in
      mk "uart_abort_receive" h
        ~start:(fun () -> u.Hil.uart_receive rx)
        ~again:(fun () ->
          u.Hil.uart_abort_receive ();
          got () = [])
        ~after:(fun () -> H.Uart.rx_inject hw (Bytes.of_string d))
        got (function
          | [ (w, Error Error.CANCEL) ] -> same rx waiting [ w ]
          | _ -> false));
    (fun () ->
      let h = hw () in
      let a, frames = radio_hw h in
      let r = Adaptors.radio a in
      let note, got = recorder () in
      r.Hil.radio_set_transmit_iov_client note;
      let iov = windows d inp.split and iov' = windows inp.other 0 in
      mk "radio_transmit_iov" h
        ~start:(fun () -> r.Hil.radio_transmit_iov ~dest:0xB iov)
        ~again:(fun () -> busy_back iov' (r.Hil.radio_transmit_iov ~dest:0xB iov'))
        ~after:(fun () -> Array.iter (fun w -> scribble w ()) iov)
        got (fun r -> one iov r && frames () = [ (0xA, d) ]));
    (fun () ->
      let h = hw () in
      let _, f, got = flash h in
      mk "flash_read" h
        ~start:(fun () -> f.Hil.flash_read ~page:1)
        ~again:(fun () -> busy_code (f.Hil.flash_read ~page:2))
        got (function [ `Read_done b ] -> Bytes.to_string b = page_of d | _ -> false));
    (fun () ->
      let h = hw () in
      let hw, f, got = flash h in
      let p = window (page_of inp.other) and p' = window (page_of d) in
      mk "flash_write" h
        ~start:(fun () -> f.Hil.flash_write ~page:2 p)
        ~again:(fun () -> busy_back p' (f.Hil.flash_write ~page:3 p'))
        ~after:(scribble p)
        got (fun r ->
          (match r with [ `Write_done s ] -> s == p | _ -> false)
          && page hw 2 = page_of inp.other && page hw 3 = erased));
    (fun () ->
      let h = hw () in
      let hw, f, got = flash h in
      let iov = windows d inp.split and iov' = windows inp.other 0 in
      let off = inp.split mod (64 - n + 1) in
      mk "flash_program" h
        ~start:(fun () -> f.Hil.flash_program ~page:2 ~off iov)
        ~again:(fun () -> busy_back iov' (f.Hil.flash_program ~page:3 ~off:0 iov'))
        ~after:(fun () -> Array.iter (fun w -> scribble w ()) iov)
        got (fun r ->
          (match r with [ `Program_done v ] -> v == iov | _ -> false)
          && page hw 2 = programmed d ~off && page hw 3 = erased));
    (fun () ->
      let h = hw () in
      let hw, f, got = flash h in
      mk "flash_erase" h
        ~start:(fun () -> f.Hil.flash_erase ~page:1)
        ~again:(fun () -> busy_code (f.Hil.flash_erase ~page:2))
        got (fun r -> r = [ `Erase_done ] && page hw 1 = erased));
    (fun () ->
      let h = hw () in
      let dg = Adaptors.digest (sha_hw h) in
      let note, got = recorder () and digests, digested = recorder () in
      (* Finalize from the chunk's completion, as the digest capsule does. *)
      dg.Hil.digest_set_data_client (fun s ->
          note s;
          ignore (dg.Hil.digest_run ()));
      dg.Hil.digest_set_digest_client (fun b -> digests (Bytes.to_string b));
      let w = window d and w' = window inp.other in
      mk "digest_add_data" h
        ~start:(fun () -> dg.Hil.digest_add_data w)
        ~again:(fun () -> busy_back w' (dg.Hil.digest_add_data w'))
        ~after:(scribble w)
        got (fun r -> same w scribbled r && digested () = [ sha d ]));
    (fun () ->
      let ((sim, irq) as h) = hw () in
      let dg = Adaptors.digest (sha_hw h) in
      ignore (dg.Hil.digest_add_data (window d));
      pump sim irq;
      let note, got = recorder () in
      dg.Hil.digest_set_digest_client (fun b -> note (Bytes.to_string b));
      mk "digest_run" h
        ~start:(fun () -> dg.Hil.digest_run ())
        ~again:(fun () -> busy_code (dg.Hil.digest_run ()))
        got (( = ) [ sha d ]));
    (fun () ->
      let h = hw () in
      let a = Adaptors.aes (aes_hw h) in
      let note, got = recorder () in
      a.Hil.aes_set_client note;
      let w = window d and w' = window inp.other in
      mk "aes_crypt" h
        ~start:(fun () -> a.Hil.aes_crypt Hil.A_ctr w)
        ~again:(fun () -> busy_back w' (a.Hil.aes_crypt Hil.A_ctr w'))
        ~after:(scribble w)
        got (same w (ctr d)));
    (fun () ->
      let h = hw () in
      let p = Adaptors.pke (pke_hw h) in
      let note, got = recorder () in
      p.Hil.pke_set_client note;
      let pk, msg, signature = signed d in
      let pubkey = Tock_crypto.Schnorr.public_key_to_bytes pk in
      let signature = Tock_crypto.Schnorr.signature_to_bytes signature in
      mk "pke_verify" h
        ~start:(fun () -> p.Hil.pke_verify ~pubkey ~msg ~signature)
        ~again:(fun () -> busy_code (p.Hil.pke_verify ~pubkey ~msg ~signature))
        ~after:(fill inp.scribble msg)
        got (( = ) [ true ]));
    (fun () ->
      let h = hw () in
      let e = Adaptors.entropy (trng_hw h) in
      let note, got = recorder () in
      e.Hil.entropy_set_client (fun w -> note (Array.length w));
      let count = 1 + (inp.split mod 4) in
      mk "entropy_request" h
        ~start:(fun () -> e.Hil.entropy_request ~count)
        ~again:(fun () -> busy_code (e.Hil.entropy_request ~count:1))
        got (( = ) [ count ]));
    (fun () ->
      let h = hw () in
      let a = Adaptors.adc (adc_hw h) in
      let note, got = recorder () in
      a.Hil.adc_set_client (fun ~channel ~value -> note (channel, value));
      mk "adc_sample" h
        ~start:(fun () -> a.Hil.adc_sample ~channel:1)
        ~again:(fun () -> busy_code (a.Hil.adc_sample ~channel:0))
        got (( = ) [ (1, 9) ]));
    (fun () ->
      let h = hw () in
      let _, dev, seen, got = spi h in
      let w = window d and w' = window inp.other in
      mk "spi_transfer" h
        ~start:(fun () -> dev.Hil.spi_transfer w)
        ~again:(fun () -> busy_back w' (dev.Hil.spi_transfer w'))
        ~after:(scribble w)
        got (fun r -> same w (xor d) r && seen () = [ d ]));
    (fun () ->
      (* The second transfer through another view of the controller:
         the controller refuses it, and the first view's completion
         still reaches the first view. *)
      let h = hw () in
      let spi, dev, seen, got = spi h in
      let dev2 = Adaptors.spi_device spi ~cs:1 in
      let note2, got2 = recorder () in
      dev2.Hil.spi_set_client note2;
      let w = window d and w' = window inp.other in
      mk "spi_transfer, second view" h
        ~start:(fun () -> dev.Hil.spi_transfer w)
        ~again:(fun () -> busy_back w' (dev2.Hil.spi_transfer w'))
        ~after:(scribble w)
        (fun () -> got () @ got2 ())
        (fun r -> same w (xor d) r && seen () = [ d ]));
    (fun () ->
      let h = hw () in
      let _, dev, writes, got = i2c h in
      let w = window d and w' = window inp.other in
      mk "i2c_write" h
        ~start:(fun () -> dev.Hil.i2c_write w)
        ~again:(fun () -> busy_back w' (dev.Hil.i2c_write w'))
        ~after:(scribble w)
        got (fun r -> same w scribbled r && writes () = [ d ]));
    (fun () ->
      let h = hw () in
      let _, dev, writes, got = i2c h in
      let w = window d and w' = window inp.other in
      mk "i2c_read" h
        ~start:(fun () -> dev.Hil.i2c_read w)
        ~again:(fun () -> busy_back w' (dev.Hil.i2c_read w'))
        got (fun r -> same w (dev_read n) r && writes () = []));
    (fun () ->
      let h = hw () in
      let _, dev, writes, got = i2c h in
      let w = window d and w' = window inp.other in
      let k = inp.split mod (n + 1) in
      mk "i2c_write_read" h
        ~start:(fun () -> dev.Hil.i2c_write_read ~write_len:k w)
        ~again:(fun () -> busy_back w' (dev.Hil.i2c_write_read ~write_len:1 w'))
        ~after:(scribble w)
        got (fun r -> same w (dev_read n) r && writes () = [ String.sub d 0 k ]));
    (fun () ->
      (* As for SPI: the bus refuses a second device's write. *)
      let h = hw () in
      let bus, dev, writes, got = i2c h in
      let dev2 = Adaptors.i2c_device bus ~addr:0x43 in
      let note2, got2 = recorder () in
      dev2.Hil.i2c_set_client (function Ok s | Error (_, s) -> note2 s);
      let w = window d and w' = window inp.other in
      mk "i2c_write, second device" h
        ~start:(fun () -> dev.Hil.i2c_write w)
        ~again:(fun () -> busy_back w' (dev2.Hil.i2c_write w'))
        ~after:(scribble w)
        (fun () -> got () @ got2 ())
        (fun r -> same w scribbled r && writes () = [ d ]));
  ]

let gen_input =
  QCheck2.Gen.(
    let* data = string_size ~gen:char (1 -- 48) in
    let* other = string_size ~gen:char (1 -- 48) in
    let* scribble = char in
    let* split = nat in
    let* steps = list_size (0 -- 12) bool in
    let+ second_at = nat in
    { data; other; scribble; split; steps; second_at })

let print_input inp =
  Printf.sprintf "data %S other %S scribble %C split %d steps [%s] second_at %d" inp.data
    inp.other inp.scribble inp.split
    (String.concat ";" (List.map string_of_bool inp.steps))
    inp.second_at

(* The split-phase contract over every operation, at both levels: a
   second operation at any point before the first one's client call is
   refused with Busy/BUSY, its buffer comes back and no client call
   follows; the accepted one
   gives exactly one client call, with the physically same buffer; and
   overwriting the caller's buffer after start changes no payload, no
   device callback and no flash page. *)
let test_split_phase_contract =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"split-phase contract" ~print:print_input gen_input
       (fun inp ->
         let failed =
           List.filter_map
             (fun case -> if run_case inp case then None else Some (case ()).name)
             (engine_cases inp @ hil_cases inp)
         in
         failed = [] || QCheck2.Test.fail_reportf "broken: %s" (String.concat ", " failed)))

let suite =
  [
    Alcotest.test_case "uart ownership protocol" `Quick test_uart_adaptor_ownership;
    Alcotest.test_case "uart receive window" `Quick test_uart_adaptor_receive;
    Alcotest.test_case "digest chunk protocol" `Quick test_digest_adaptor_chunks;
    Alcotest.test_case "flash mux serializes" `Quick test_flash_mux_serializes;
    Alcotest.test_case "spi mux serializes" `Quick test_spi_mux_serializes;
    Alcotest.test_case "uart mux queues writers" `Quick test_uart_mux_queues_writers;
    Alcotest.test_case "pke rejects garbage" `Quick test_pke_adaptor_rejects_garbage;
    Alcotest.test_case "i2c devices share one bus" `Quick test_i2c_devices_share_one_bus;
    Alcotest.test_case "busy engines answer BUSY" `Quick
      test_busy_engines_answer_busy;
    test_split_phase_contract;
  ]
