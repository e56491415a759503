(* Hardware peripheral models: UART, SPI (CS polarity), I2C, GPIO, timer
   wrap semantics, TRNG, flash NOR semantics, radio medium, sensors, and
   one golden record over every split-phase engine. *)

open! Helpers
open Tock_hw

let setup () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  (sim, irq)

let pump sim =
  while Sim.advance_to_next_event sim do
    ()
  done

(* ---- UART ---- *)

let test_uart_tx () =
  let sim, irq = setup () in
  let u = Uart.create sim irq ~irq_line:1 ~name:"u" in
  let sent = Buffer.create 16 in
  Uart.set_tx_sink u (fun b -> Buffer.add_bytes sent b);
  let done_len = ref 0 in
  Uart.set_transmit_client u (fun ~len -> done_len := len);
  (match Uart.transmit u (Bytes.of_string "hello") ~len:5 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Completion.text e));
  Alcotest.(check bool) "busy while sending" true (Uart.tx_busy u);
  (match Uart.transmit u (Bytes.of_string "x") ~len:1 with
  | Error (Completion.Busy "transmit busy") -> ()
  | _ -> Alcotest.fail "second transmit should be busy");
  let t0 = Sim.now sim in
  pump sim;
  ignore (Irq.service irq);
  Alcotest.(check string) "bytes arrived" "hello" (Buffer.contents sent);
  Alcotest.(check int) "completion length" 5 !done_len;
  (* Wire time: 5 bytes at 115200 baud, 10 bits/byte, 16 MHz clock. *)
  let expect = 5 * (16_000_000 * 10 / 115200) in
  Alcotest.(check int) "wire timing" expect (Sim.now sim - t0)

let test_uart_rx_and_overrun () =
  let sim, irq = setup () in
  let u = Uart.create sim irq ~irq_line:1 ~name:"u" in
  let got = ref Bytes.empty in
  Uart.set_receive_client u (function
    | Some b -> got := b
    | None -> Alcotest.fail "receive aborted");
  (* Inject before any receive: bytes buffer in the 64-byte FIFO. *)
  Uart.rx_inject u (Bytes.of_string "abc");
  (match Uart.receive u ~len:2 with Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim;
  ignore (Irq.service irq);
  Alcotest.(check string) "fifo satisfies receive" "ab" (Bytes.to_string !got);
  (* Overrun: flood more than the FIFO holds. *)
  Uart.rx_inject u (Bytes.make 100 'z');
  Alcotest.(check bool) "overruns counted" true (Uart.overruns u > 0)

(* A receive is in flight from [receive] until its client call: with
   the bytes already in the FIFO, a second receive is refused, before
   and after the completion fires, and one call delivers the first's
   bytes. [abort_receive] ends it early: it calls nobody itself, the
   receive stays in flight until the top half makes its one call,
   [None], and the next receive gets the next bytes. *)
let test_uart_rx_one_in_flight () =
  let sim, irq = setup () in
  let u = Uart.create sim irq ~irq_line:1 ~name:"u" in
  let got = ref [] in
  Uart.set_receive_client u (fun b -> got := Option.map Bytes.to_string b :: !got);
  Uart.rx_inject u (Bytes.of_string "abcdef");
  let receive () = Uart.receive u ~len:2 in
  let busy what =
    Alcotest.(check bool) what true (receive () = Error (Completion.Busy "receive busy"))
  in
  Alcotest.(check bool) "first accepted" true (Result.is_ok (receive ()));
  busy "second refused mid-flight";
  pump sim;
  busy "second refused before the top half";
  ignore (Irq.service irq);
  let calls = Alcotest.(check (list (option string))) in
  calls "one call, first bytes" [ Some "ab" ] !got;
  (* This receive takes "cd", then is aborted. *)
  ignore (receive ());
  Uart.abort_receive u;
  calls "abort calls nobody itself" [ Some "ab" ] !got;
  busy "refused until the aborted receive's call";
  ignore (Irq.service irq);
  calls "one call for the aborted receive" [ None; Some "ab" ] !got;
  ignore (receive ());
  pump sim;
  ignore (Irq.service irq);
  calls "next receive, next bytes" [ Some "ef"; None; Some "ab" ] !got

let test_uart_configure () =
  let sim, irq = setup () in
  let u = Uart.create sim irq ~irq_line:1 ~name:"u" in
  (match Uart.configure u ~baud:9600 ~parity:Uart.Even ~stop_bits:2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "cycles per byte at 9600 8E2"
    (16_000_000 * 12 / 9600) (Uart.cycles_per_byte u);
  (match Uart.configure u ~baud:100 ~parity:Uart.No_parity ~stop_bits:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad baud accepted")

(* ---- SPI ---- *)

let test_spi_polarity () =
  let sim, irq = setup () in
  let spi =
    Spi.create sim irq ~irq_line:2 ~cs_capability:Spi.Only_active_low
      ~cycles_per_byte:8
  in
  ignore
    (Spi.add_device spi ~cs:0 ~requires:Spi.Active_low ~transfer:(fun tx ->
         Bytes.map (fun c -> Char.chr (Char.code c lxor 0xFF)) tx));
  ignore
    (Spi.add_device spi ~cs:1 ~requires:Spi.Active_high ~transfer:(fun tx -> tx));
  (match Spi.configure_cs spi ~cs:1 Spi.Active_high with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "active-high must be unsupported");
  let got = ref Bytes.empty in
  Spi.set_client spi (fun ~rx -> got := rx);
  (* Good transfer to the active-low device. *)
  (match Spi.read_write spi ~cs:0 [ (Bytes.of_string "\x01\x02", 0, 2) ] with
  | Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim;
  ignore (Irq.service irq);
  Alcotest.(check string) "device answered" "\xfe\xfd" (Bytes.to_string !got);
  (* Mis-polarized: device at cs 1 needs active-high, we drive low. *)
  (match Spi.read_write spi ~cs:1 [ (Bytes.of_string "\x55", 0, 1) ] with
  | Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim;
  ignore (Irq.service irq);
  Alcotest.(check string) "bus floats high" "\xff" (Bytes.to_string !got);
  Alcotest.(check int) "mispolarized counted" 1 (Spi.mispolarized_transfers spi)

(* ---- I2C ---- *)

let test_i2c () =
  let sim, irq = setup () in
  let bus = I2c.create sim irq ~irq_line:3 ~cycles_per_byte:10 in
  let written = ref Bytes.empty in
  I2c.add_device bus ~addr:0x42
    ~on_write:(fun b -> written := b)
    ~on_read:(fun n -> Bytes.make n 'r');
  let result = ref None in
  I2c.set_client bus (fun code rx -> result := Some (code, rx));
  (match I2c.write_read bus ~addr:0x42 [ (Bytes.of_string "W", 0, 1) ] ~read_len:3 with
  | Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim;
  ignore (Irq.service irq);
  (match !result with
  | Some (I2c.Done, rx) ->
      Alcotest.(check string) "read back" "rrr" (Bytes.to_string rx);
      Alcotest.(check string) "wrote" "W" (Bytes.to_string !written)
  | _ -> Alcotest.fail "transaction failed");
  (* Missing device NACKs. *)
  (match I2c.read bus ~addr:0x7F ~len:1 with Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim;
  ignore (Irq.service irq);
  (match !result with
  | Some (I2c.Nack, _) -> ()
  | _ -> Alcotest.fail "expected NACK")

(* ---- GPIO ---- *)

let test_gpio_interrupts () =
  let sim, irq = setup () in
  let g = Gpio.create sim irq ~irq_line:4 ~pins:8 in
  let events = ref [] in
  Gpio.set_mode g ~pin:0 Gpio.Input;
  Gpio.enable_interrupt g ~pin:0 Gpio.Rising;
  Gpio.set_pin_client g ~pin:0 (fun level -> events := level :: !events);
  Gpio.drive g ~pin:0 true;
  ignore (Irq.service irq);
  Gpio.drive g ~pin:0 false; (* falling: no interrupt configured *)
  ignore (Irq.service irq);
  Gpio.drive g ~pin:0 true;
  ignore (Irq.service irq);
  Alcotest.(check (list bool)) "rising edges only" [ true; true ] !events;
  (* Output pins ignore environment writes of the driver side. *)
  Gpio.set_mode g ~pin:1 Gpio.Output;
  Gpio.set g ~pin:1 true;
  Alcotest.(check bool) "output readable" true (Gpio.read g ~pin:1)

let test_led_button () =
  let sim, irq = setup () in
  let g = Gpio.create sim irq ~irq_line:4 ~pins:8 in
  let led = Gpio.Led.attach g ~pin:2 ~active_high:false in
  Gpio.Led.on led;
  Alcotest.(check bool) "lit" true (Gpio.Led.is_lit led);
  Alcotest.(check bool) "active-low pin level" false (Gpio.read g ~pin:2);
  Gpio.Led.toggle led;
  Gpio.Led.toggle led;
  Alcotest.(check int) "transitions" 3 (Gpio.Led.transitions led);
  let b = Gpio.Button.attach g ~pin:3 ~active_high:true in
  Alcotest.(check bool) "released" false (Gpio.Button.is_pressed b);
  Gpio.Button.press b;
  Alcotest.(check bool) "pressed" true (Gpio.Button.is_pressed b)

(* ---- timer ---- *)

let test_timer_basic () =
  let sim, irq = setup () in
  let t = Hw_timer.create sim irq ~irq_line:5 ~cycles_per_tick:100 in
  Alcotest.(check int) "frequency" 160_000 (Hw_timer.frequency_hz t);
  let fired = ref 0 in
  Hw_timer.set_client t (fun () -> incr fired);
  Hw_timer.set_alarm t ~reference:(Hw_timer.now_ticks t) ~dt:10;
  Alcotest.(check bool) "armed" true (Hw_timer.is_armed t);
  pump sim;
  ignore (Irq.service irq);
  Alcotest.(check int) "fired once" 1 !fired;
  Alcotest.(check bool) "disarmed after fire" false (Hw_timer.is_armed t);
  Alcotest.(check int) "now" 10 (Hw_timer.now_ticks t);
  (* MMIO view *)
  let regs = Hw_timer.registers t in
  Alcotest.(check int) "VALUE register" 10 (Mmio.read regs "VALUE")

let test_timer_expired_semantics () =
  Alcotest.(check bool) "not expired" false
    (Hw_timer.expired ~reference:100 ~dt:50 ~now:120);
  Alcotest.(check bool) "expired" true
    (Hw_timer.expired ~reference:100 ~dt:50 ~now:150);
  (* across the 32-bit wrap *)
  let near = 0xFFFFFFFF - 10 in
  Alcotest.(check bool) "wrap not expired" false
    (Hw_timer.expired ~reference:near ~dt:50 ~now:20);
  Alcotest.(check bool) "wrap expired" true
    (Hw_timer.expired ~reference:near ~dt:20 ~now:20)

let test_timer_past_alarm_fires () =
  let sim, irq = setup () in
  let t = Hw_timer.create sim irq ~irq_line:5 ~cycles_per_tick:10 in
  Sim.spend sim 1000; (* now = tick 100 *)
  let fired = ref false in
  Hw_timer.set_client t (fun () -> fired := true);
  (* Alarm whose deadline already passed: fires on the next tick. *)
  Hw_timer.set_alarm t ~reference:0 ~dt:5;
  ignore (Sim.advance_to_next_event sim);
  ignore (Irq.service irq);
  Alcotest.(check bool) "fired promptly" true !fired

(* ---- TRNG ---- *)

let test_trng () =
  let sim, irq = setup () in
  let t = Trng.create sim irq ~irq_line:6 ~cycles_per_word:50 in
  let got = ref [||] in
  Trng.set_client t (fun w -> got := w);
  (match Trng.request t ~count:4 with Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  (match Trng.request t ~count:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "busy accepted");
  pump sim;
  ignore (Irq.service irq);
  Alcotest.(check int) "word count" 4 (Array.length !got);
  Alcotest.(check bool) "32-bit words" true
    (Array.for_all (fun w -> w >= 0 && w <= 0xFFFFFFFF) !got)

(* ---- flash ---- *)

let test_flash_nor_semantics () =
  let sim, irq = setup () in
  let f =
    Flash_ctrl.create sim irq ~irq_line:7 ~pages:4 ~page_size:64
      ~read_cycles:10 ~write_cycles:100 ~erase_cycles:500
  in
  let events = ref [] in
  Flash_ctrl.set_client f (fun r -> events := r :: !events);
  Alcotest.(check char) "erased initially" '\xff'
    (Bytes.get (Flash_ctrl.read_page_sync f ~page:0) 0);
  let page = Bytes.make 64 '\xff' in
  Bytes.set page 0 '\x0f';
  (match Flash_ctrl.write_page f ~page:0 [ (page, 0, 64) ] with Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim; ignore (Irq.service irq);
  (* AND semantics: writing 0xf0 over 0x0f gives 0x00, and counts as a
     dirty write (data lost). *)
  Bytes.set page 0 '\xf0';
  (match Flash_ctrl.write_page f ~page:0 [ (page, 0, 64) ] with Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim; ignore (Irq.service irq);
  Alcotest.(check char) "AND write" '\x00'
    (Bytes.get (Flash_ctrl.read_page_sync f ~page:0) 0);
  Alcotest.(check int) "dirty writes counted" 1 (Flash_ctrl.dirty_writes f);
  (match Flash_ctrl.erase_page f ~page:0 with Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim; ignore (Irq.service irq);
  Alcotest.(check char) "erase restores" '\xff'
    (Bytes.get (Flash_ctrl.read_page_sync f ~page:0) 0);
  Alcotest.(check int) "wear counted" 1 (Flash_ctrl.wear f ~page:0)

(* ---- radio ---- *)

let test_radio_delivery () =
  let sim, _ = setup () in
  let irq_a = Irq.create sim and irq_b = Irq.create sim in
  let ether = Radio.Ether.create sim () in
  let a = Radio.create ether irq_a ~irq_line:1 ~addr:0xA in
  let b = Radio.create ether irq_b ~irq_line:1 ~addr:0xB in
  let got = ref None in
  Radio.set_receive_client b (fun ~src payload -> got := Some (src, payload));
  Radio.start_listening b;
  Radio.start_listening a;
  (match Radio.transmit_segs a ~dest:0xB [ (Bytes.of_string "ping", 0, 4) ] with
  | Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  Alcotest.(check bool) "transmitting" true (Radio.state a = Radio.Transmitting);
  pump sim;
  ignore (Irq.service irq_a);
  ignore (Irq.service irq_b);
  (match !got with
  | Some (0xA, p) -> Alcotest.(check string) "payload" "ping" (Bytes.to_string p)
  | _ -> Alcotest.fail "frame not delivered");
  Alcotest.(check int) "delivered" 1 (Radio.Ether.delivered ether);
  (* Unicast filtering: a frame to someone else is not delivered. *)
  got := None;
  (match Radio.transmit_segs a ~dest:0xC [ (Bytes.of_string "nope", 0, 4) ] with
  | Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim;
  ignore (Irq.service irq_a);
  ignore (Irq.service irq_b);
  Alcotest.(check bool) "filtered" true (!got = None);
  (* Off radio can still transmit (powers up for the frame). *)
  Radio.stop a;
  (match Radio.transmit_segs a ~dest:0xB [ (Bytes.of_string "x", 0, 1) ] with
  | Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim;
  Alcotest.(check bool) "back off after tx" true (Radio.state a = Radio.Off)

(* ---- sensors ---- *)

let test_sensors () =
  let sim, irq = setup () in
  let bus = I2c.create sim irq ~irq_line:3 ~cycles_per_byte:10 in
  let env = Sensors.default_env ~clock_hz:(Sim.clock_hz sim) in
  Sensors.attach sim bus env Sensors.Temperature;
  let result = ref None in
  I2c.set_client bus (fun code rx -> result := Some (code, rx));
  (match
     I2c.write_read bus ~addr:(Sensors.i2c_addr Sensors.Temperature)
       [ (Bytes.of_string "\x00", 0, 1) ] ~read_len:2
   with
  | Ok () -> () | Error e -> Alcotest.fail (Completion.text e));
  pump sim;
  ignore (Irq.service irq);
  match !result with
  | Some (I2c.Done, rx) ->
      let v = (Char.code (Bytes.get rx 0) lsl 8) lor Char.code (Bytes.get rx 1) in
      let expected = env.Sensors.temperature_cc (Sim.now sim) in
      (* The sensor samples at read time; the env is deterministic. *)
      Alcotest.(check bool) "plausible reading" true (abs (v - expected) <= 7)
  | _ -> Alcotest.fail "sensor read failed"

(* ---- split-phase engines, pinned ---- *)

(* One scripted run over every split-phase engine on a bare [Sim] +
   [Irq]. Each client call records the clock and its payload, then
   starts the next operation from inside the callback; each started
   operation is followed by a second one issued while busy, whose
   refusal text is recorded. IRQs are serviced after every event. Two
   closing bursts start several engines at once, so completions
   interleave by (deadline, seq) and, on one cycle, by line. The record
   ends with the clock, the energy report and the hardware metrics
   snapshot (every [irq.<name>.serviced] included); its MD5 pins all
   of it. Moving any cycle, payload, refusal or PRNG draw fails
   here. *)
let engines_golden_md5 = "b6dcf74456b6d58c103cd04370e29499"

let engines_record () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  let out = Buffer.create 8192 in
  let log fmt =
    Printf.ksprintf
      (fun s -> Printf.bprintf out "%d %s\n" (Sim.now sim) s)
      fmt
  in
  let result tag = function
    | Ok () -> log "%s ok" tag
    | Error e -> log "%s error: %s" tag (Completion.text e)
  in
  let digest b = Digest.to_hex (Digest.bytes b) in
  let steps : (unit -> int) Queue.t = Queue.create () in
  let pending = ref 0 in
  let rec advance () =
    match Queue.take_opt steps with
    | None -> ()
    | Some step ->
        let n = step () in
        if n = 0 then advance () else pending := n
  in
  let complete () =
    decr pending;
    if !pending = 0 then advance ()
  in
  (* Start [op]; on success also try [again] while busy. Returns the
     completions to await. *)
  let start tag op again =
    match op () with
    | Ok () ->
        log "%s started" tag;
        List.iter (fun (t, f) -> result (tag ^ " while busy: " ^ t) (f ())) again;
        1
    | Error e ->
        log "%s error: %s" tag (Completion.text e);
        0
  in
  let step f = Queue.add f steps in
  (* Start several operations at once, in list order. *)
  let burst tag ops =
    List.length
      (List.filter Fun.id
         (List.mapi
            (fun i op ->
              let r = op () in
              result (Printf.sprintf "%s %d" tag i) r;
              Result.is_ok r)
            ops))
  in
  let adc =
    Adc.create sim irq ~irq_line:1 ~cycles_per_sample:320
      ~channels:
        (Array.map
           (fun f now ->
             log "adc probe";
             f now)
           [|
             (fun now -> now mod 5000);
             (fun now -> 4090 + (now mod 13));
             (fun now -> 3 - (now mod 11));
           |])
  in
  let aes = Aes_engine.create sim irq ~irq_line:2 ~cycles_per_block:40 in
  let flash =
    Flash_ctrl.create sim irq ~irq_line:3 ~pages:4 ~page_size:64
      ~read_cycles:100 ~write_cycles:4000 ~erase_cycles:6000
  in
  let i2c = I2c.create sim irq ~irq_line:4 ~cycles_per_byte:160 in
  let pke = Pke_engine.create sim irq ~irq_line:5 ~cycles_per_verify:12_000 in
  let sha = Sha_engine.create sim irq ~irq_line:6 ~cycles_per_block:80 in
  let spi =
    Spi.create sim irq ~irq_line:7 ~cs_capability:Spi.Only_active_low
      ~cycles_per_byte:20
  in
  let trng = Trng.create sim irq ~irq_line:8 ~cycles_per_word:400 in
  let uart = Uart.create sim irq ~irq_line:9 ~name:"uart0" in
  let ether = Radio.Ether.create sim () in
  let ra = Radio.create ether irq ~irq_line:10 ~addr:0xA in
  let rb = Radio.create ether irq ~irq_line:11 ~addr:0xB in
  (* Clients: record, then move the script on. *)
  Adc.set_client adc (fun ~channel ~value ->
      log "adc ch%d = %d" channel value;
      complete ());
  Aes_engine.set_client aes (fun b ->
      log "aes out %s" (hex b);
      complete ());
  Flash_ctrl.set_client flash (fun r ->
      (match r with
      | Flash_ctrl.Read_done b -> log "flash read %s" (digest b)
      | Flash_ctrl.Write_done -> log "flash write done"
      | Flash_ctrl.Program_done -> log "flash program done"
      | Flash_ctrl.Erase_done -> log "flash erase done");
      log "flash page1 %s dirty %d wear %d"
        (digest (Flash_ctrl.read_page_sync flash ~page:1))
        (Flash_ctrl.dirty_writes flash) (Flash_ctrl.wear flash ~page:1);
      complete ());
  let reads = ref 0 in
  I2c.add_device i2c ~addr:0x42
    ~on_write:(fun b -> log "i2c dev write %s" (hex b))
    ~on_read:(fun n ->
      log "i2c dev read %d" n;
      incr reads;
      Bytes.init n (fun i -> Char.chr ((!reads * 16) + i)));
  I2c.set_client i2c (fun code rx ->
      log "i2c %s %s" (match code with I2c.Done -> "done" | I2c.Nack -> "nack")
        (hex rx);
      complete ());
  Pke_engine.set_client pke (fun ok ->
      log "pke verdict %b" ok;
      complete ());
  Sha_engine.set_client sha (function
    | Sha_engine.Data_done ->
        log "sha data done";
        complete ()
    | Sha_engine.Digest_done d ->
        log "sha digest %s" (hex d);
        complete ());
  ignore
    (Spi.add_device spi ~cs:0 ~requires:Spi.Active_low ~transfer:(fun tx ->
         Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5A)) tx));
  ignore (Spi.add_device spi ~cs:1 ~requires:Spi.Active_high ~transfer:Fun.id);
  ignore
    (Spi.add_device spi ~cs:2 ~requires:Spi.Active_low ~transfer:(fun tx ->
         Bytes.sub tx 0 (Bytes.length tx / 2)));
  Spi.set_client spi (fun ~rx ->
      log "spi rx %s mispolarized %d" (hex rx) (Spi.mispolarized_transfers spi);
      complete ());
  Trng.set_client trng (fun words ->
      log "trng %s"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%08x") words)));
      complete ());
  Uart.set_tx_sink uart (fun b -> log "uart sink %S" (Bytes.to_string b));
  Uart.set_transmit_client uart (fun ~len ->
      log "uart tx done %d" len;
      complete ());
  let radio_tx_done name r () =
    log "radio %s tx done, state %s" name
      (match Radio.state r with
      | Radio.Off -> "off"
      | Radio.Listening -> "listening"
      | Radio.Transmitting -> "transmitting");
    complete ()
  in
  Radio.set_transmit_client ra (radio_tx_done "a" ra);
  Radio.set_transmit_client rb (radio_tx_done "b" rb);
  Radio.set_receive_client rb (fun ~src b -> log "radio b rx %04x %S" src (Bytes.to_string b));
  Radio.set_receive_client ra (fun ~src b -> log "radio a rx %04x %S" src (Bytes.to_string b));
  let bytes_of s = Bytes.of_string s in
  let seg s = [ (bytes_of s, 0, String.length s) ] in
  (* ADC: every channel, a bad channel, a sample while busy. *)
  for ch = 0 to 2 do
    step (fun () ->
        start (Printf.sprintf "adc sample %d" ch)
          (fun () -> Adc.sample adc ~channel:ch)
          [ ("sample", fun () -> Adc.sample adc ~channel:((ch + 1) mod 3)) ])
  done;
  step (fun () -> start "adc sample 3" (fun () -> Adc.sample adc ~channel:3) []);
  (* AES: no key yet, key/iv errors, CTR, ECB both ways, ECB length. *)
  let plain = bytes_of "0123456789abcdefFEDCBA9876543210" in
  step (fun () ->
      start "aes ctr no key"
        (fun () -> Aes_engine.crypt aes ~mode:Aes_engine.Ctr ~src:plain ~off:0 ~len:16)
        []);
  step (fun () ->
      result "aes short key" (Aes_engine.set_key aes (bytes_of "short"));
      result "aes key" (Aes_engine.set_key aes (bytes_of "k0k1k2k3k4k5k6k7"));
      result "aes short iv" (Aes_engine.set_iv aes (bytes_of "iv"));
      result "aes iv" (Aes_engine.set_iv aes (bytes_of "iviviviviviviviv"));
      start "aes ctr"
        (fun () -> Aes_engine.crypt aes ~mode:Aes_engine.Ctr ~src:plain ~off:3 ~len:21)
        [
          ("crypt", fun () -> Aes_engine.crypt aes ~mode:Aes_engine.Ctr ~src:plain ~off:0 ~len:16);
          ("set_key", fun () -> Aes_engine.set_key aes (bytes_of "k0k1k2k3k4k5k6k7"));
          ("set_iv", fun () -> Aes_engine.set_iv aes (bytes_of "iviviviviviviviv"));
        ]);
  step (fun () ->
      start "aes ecb encrypt"
        (fun () -> Aes_engine.crypt aes ~mode:Aes_engine.Ecb_encrypt ~src:plain ~off:0 ~len:32)
        [ ("crypt", fun () -> Aes_engine.crypt aes ~mode:Aes_engine.Ecb_decrypt ~src:plain ~off:0 ~len:16) ]);
  step (fun () ->
      start "aes ecb decrypt"
        (fun () -> Aes_engine.crypt aes ~mode:Aes_engine.Ecb_decrypt ~src:plain ~off:16 ~len:16)
        []);
  step (fun () ->
      start "aes ecb length"
        (fun () -> Aes_engine.crypt aes ~mode:Aes_engine.Ecb_encrypt ~src:plain ~off:0 ~len:15)
        []);
  step (fun () ->
      start "aes bad range"
        (fun () -> Aes_engine.crypt aes ~mode:Aes_engine.Ctr ~src:plain ~off:30 ~len:5)
        []);
  (* Flash: read, write, program (good, bad segment, bad range, bad
     page), a dirtying rewrite, erase. *)
  let page = Bytes.init 64 (fun i -> Char.chr (0xF0 lor (i land 0x0F))) in
  step (fun () ->
      start "flash read 0"
        (fun () -> Flash_ctrl.read_page flash ~page:0)
        [ ("read", fun () -> Flash_ctrl.read_page flash ~page:1) ]);
  step (fun () ->
      result "flash write short" (Flash_ctrl.write_page flash ~page:1 (seg "x"));
      result "flash write bad page" (Flash_ctrl.write_page flash ~page:4 [ (page, 0, 64) ]);
      start "flash write 1"
        (fun () -> Flash_ctrl.write_page flash ~page:1 [ (page, 0, 64) ])
        [
          ("erase", fun () -> Flash_ctrl.erase_page flash ~page:1);
          ("write", fun () -> Flash_ctrl.write_page flash ~page:2 [ (page, 0, 64) ]);
        ]);
  let segs = [ (bytes_of "\x0f\x1e\x2d", 0, 3); (bytes_of "abcdef", 1, 4) ] in
  step (fun () ->
      start "flash program bad segment"
        (fun () -> Flash_ctrl.program_region flash ~page:1 ~off:0 [ (bytes_of "abc", 2, 2) ])
        []);
  step (fun () ->
      start "flash program bad range"
        (fun () -> Flash_ctrl.program_region flash ~page:1 ~off:60 segs)
        []);
  step (fun () ->
      start "flash program bad page"
        (fun () -> Flash_ctrl.program_region flash ~page:7 ~off:0 segs)
        []);
  step (fun () ->
      start "flash program 1"
        (fun () -> Flash_ctrl.program_region flash ~page:1 ~off:10 segs)
        [ ("program", fun () -> Flash_ctrl.program_region flash ~page:2 ~off:0 segs) ]);
  step (fun () ->
      start "flash rewrite 1"
        (fun () -> Flash_ctrl.write_page flash ~page:1 [ (Bytes.make 64 '\xff', 0, 64) ])
        []);
  step (fun () ->
      start "flash erase 1"
        (fun () -> Flash_ctrl.erase_page flash ~page:1)
        [ ("read", fun () -> Flash_ctrl.read_page flash ~page:0) ]);
  step (fun () -> start "flash read 1" (fun () -> Flash_ctrl.read_page flash ~page:1) []);
  (* I2C: each transaction to a present and a missing device. *)
  List.iter
    (fun addr ->
      step (fun () ->
          start (Printf.sprintf "i2c write %02x" addr)
            (fun () -> I2c.write i2c ~addr (seg "\x01\x02"))
            [ ("read", fun () -> I2c.read i2c ~addr ~len:1) ]);
      step (fun () ->
          start (Printf.sprintf "i2c read %02x" addr)
            (fun () -> I2c.read i2c ~addr ~len:3)
            [ ("write_read", fun () -> I2c.write_read i2c ~addr (seg "\x00") ~read_len:1) ]);
      step (fun () ->
          start (Printf.sprintf "i2c write_read %02x" addr)
            (fun () -> I2c.write_read i2c ~addr (seg "\x05\x06") ~read_len:2)
            [ ("write", fun () -> I2c.write i2c ~addr (seg "\x07")) ]))
    [ 0x42; 0x13 ];
  step (fun () -> start "i2c read 0" (fun () -> I2c.read i2c ~addr:0x42 ~len:0) []);
  (* PKE: a good and a bad signature. *)
  let prng = Tock_crypto.Prng.create ~seed:0x5EEDL in
  let sk, pk = Tock_crypto.Schnorr.keypair prng in
  let msg = bytes_of "boot image" in
  let signature = Tock_crypto.Schnorr.sign sk prng msg in
  step (fun () ->
      start "pke good"
        (fun () -> Pke_engine.verify pke ~pk ~msg ~signature)
        [ ("verify", fun () -> Pke_engine.verify pke ~pk ~msg ~signature) ]);
  step (fun () ->
      start "pke bad"
        (fun () -> Pke_engine.verify pke ~pk ~msg:(bytes_of "boot imagf") ~signature)
        []);
  (* SHA-256 then HMAC, each over several chunks, then run. *)
  let data = Bytes.init 200 (fun i -> Char.chr (i * 7 land 0xFF)) in
  let chunk tag off len =
    step (fun () ->
        start tag
          (fun () -> Sha_engine.add_data sha data ~off ~len)
          [
            ("add_data", fun () -> Sha_engine.add_data sha data ~off:0 ~len:1);
            ("run", fun () -> Sha_engine.run sha);
            ("set_mode_sha256", fun () -> Sha_engine.set_mode_sha256 sha);
            ("set_mode_hmac", fun () -> Sha_engine.set_mode_hmac sha ~key:(bytes_of "k"));
          ])
  in
  step (fun () ->
      result "sha mode" (Sha_engine.set_mode_sha256 sha);
      0);
  chunk "sha chunk 0" 0 70;
  chunk "sha chunk 1" 70 64;
  chunk "sha chunk 2" 134 1;
  step (fun () -> start "sha run" (fun () -> Sha_engine.run sha) [ ("run", fun () -> Sha_engine.run sha) ]);
  step (fun () ->
      result "hmac mode" (Sha_engine.set_mode_hmac sha ~key:(bytes_of "secret key"));
      0);
  chunk "hmac chunk 0" 0 129;
  chunk "hmac chunk 1" 129 71;
  step (fun () -> start "hmac run" (fun () -> Sha_engine.run sha) []);
  step (fun () -> start "sha bad range" (fun () -> Sha_engine.add_data sha data ~off:190 ~len:20) []);
  step (fun () -> start "sha run empty" (fun () -> Sha_engine.run sha) []);
  (* SPI: matching, mispolarized, absent and short-answering devices. *)
  let tx = bytes_of "\x10\x20\x30\x40" in
  List.iter
    (fun (cs, len) ->
      step (fun () ->
          start (Printf.sprintf "spi cs%d len%d" cs len)
            (fun () -> Spi.read_write spi ~cs [ (tx, 0, len) ])
            [ ("read_write", fun () -> Spi.read_write spi ~cs:0 [ (tx, 0, 1) ]) ]))
    [ (0, 4); (1, 4); (2, 4); (5, 2); (0, 9) ];
  (* TRNG *)
  step (fun () ->
      start "trng 3"
        (fun () -> Trng.request trng ~count:3)
        [ ("request", fun () -> Trng.request trng ~count:1) ]);
  step (fun () -> start "trng 0" (fun () -> Trng.request trng ~count:0) []);
  step (fun () -> start "trng 1" (fun () -> Trng.request trng ~count:1) []);
  (* UART and radio scatter-gather transmit, incl. a bad segment. *)
  let segs = [ (bytes_of "hello", 0, 3); (bytes_of "--world", 2, 5); (bytes_of "!", 0, 1) ] in
  step (fun () ->
      start "uart segs"
        (fun () -> Uart.transmit_segs uart segs)
        [ ("transmit_segs", fun () -> Uart.transmit_segs uart segs) ]);
  step (fun () ->
      start "uart bad segment"
        (fun () -> Uart.transmit_segs uart [ (bytes_of "ab", 1, 2) ])
        []);
  step (fun () ->
      Radio.start_listening rb;
      start "radio segs"
        (fun () -> Radio.transmit_segs ra ~dest:0xB segs)
        [ ("transmit_segs", fun () -> Radio.transmit_segs ra ~dest:0xB segs) ]);
  step (fun () ->
      start "radio bad segment"
        (fun () -> Radio.transmit_segs ra ~dest:0xB [ (bytes_of "ab", -1, 1) ])
        []);
  step (fun () ->
      start "radio too long"
        (fun () -> Radio.transmit_segs ra ~dest:0xB [ (Bytes.make 200 'x', 0, 128) ])
        []);
  step (fun () ->
      Radio.start_listening ra;
      start "radio broadcast"
        (fun () -> Radio.transmit_segs rb ~dest:0xFFFF [ (bytes_of "beacon", 0, 6) ])
        []);
  (* Burst: ten engines at once. *)
  step (fun () ->
      burst "burst"
        [
          (fun () -> Adc.sample adc ~channel:1);
          (fun () ->
            Aes_engine.crypt aes ~mode:Aes_engine.Ctr ~src:plain ~off:0 ~len:32);
          (fun () -> Flash_ctrl.program_region flash ~page:3 ~off:5 segs);
          (fun () -> I2c.write i2c ~addr:0x42 (seg "\x09"));
          (fun () -> Pke_engine.verify pke ~pk ~msg ~signature);
          (fun () -> Sha_engine.add_data sha data ~off:0 ~len:128);
          (fun () -> Spi.read_write spi ~cs:0 [ (tx, 0, 2) ]);
          (fun () -> Trng.request trng ~count:2);
          (fun () -> Uart.transmit_segs uart segs);
          (fun () -> Radio.transmit_segs ra ~dest:0xB segs);
        ]);
  (* Ties: the I2C write and the ADC sample finish on one cycle, as do
     the SHA chunk, the AES block pair and the SPI transfer. *)
  step (fun () ->
      burst "tie"
        [
          (fun () -> I2c.write i2c ~addr:0x42 (seg "\x0a"));
          (fun () -> Adc.sample adc ~channel:0);
          (fun () -> Sha_engine.add_data sha data ~off:0 ~len:64);
          (fun () ->
            Aes_engine.crypt aes ~mode:Aes_engine.Ctr ~src:plain ~off:0 ~len:32);
          (fun () -> Spi.read_write spi ~cs:0 [ (tx, 0, 4) ]);
          (fun () -> Trng.request trng ~count:1);
        ]);
  advance ();
  while Sim.advance_to_next_event sim do
    ignore (Irq.service irq)
  done;
  log "end active %d sleep %d pending %d" (Sim.active_cycles sim)
    (Sim.sleep_cycles sim) !pending;
  log "ether delivered %d lost %d collisions %d" (Radio.Ether.delivered ether)
    (Radio.Ether.lost ether) (Radio.Ether.collisions ether);
  List.iter
    (fun (name, uj) -> log "energy %s %.6f" name uj)
    (Sim.energy_report sim);
  Buffer.add_string out
    (Tock_obs.Metrics.render_text (Tock_obs.Metrics.snapshot (Sim.metrics sim)));
  Buffer.contents out

let test_engines_golden () =
  let record = engines_record () in
  let md5 = Digest.to_hex (Digest.string record) in
  if md5 <> engines_golden_md5 then prerr_string record;
  Alcotest.(check string) "engine record MD5" engines_golden_md5 md5

(* ---- SHA engine: the HMAC key cache ----

   One engine keeps the last HMAC key's midstates and compares each new
   key with it byte for byte. Ops under alternating keys, under two
   different keys of one length, and under one key buffer rewritten
   between ops must each get their key's tag; and an op takes the same
   simulated cycles whether its key was cached or not. *)

let test_sha_key_cache () =
  let sim, irq = setup () in
  let sha = Sha_engine.create sim irq ~irq_line:6 ~cycles_per_block:80 in
  let tag = ref Bytes.empty in
  Sha_engine.set_client sha (function
    | Sha_engine.Data_done -> ()
    | Sha_engine.Digest_done d -> tag := d);
  let ok what = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" what (Completion.text e)
  in
  let settle () =
    pump sim;
    ignore (Irq.service irq)
  in
  let msg = Bytes.of_string "\x01\x10\x00\x00" in
  (* One HMAC through the engine: its tag and the cycles it took. *)
  let mac key =
    let t0 = Sim.now sim in
    ok "mode" (Sha_engine.set_mode_hmac sha ~key);
    ok "data" (Sha_engine.add_data sha msg ~off:0 ~len:(Bytes.length msg));
    settle ();
    ok "run" (Sha_engine.run sha);
    settle ();
    (!tag, Sim.now sim - t0)
  in
  let expect key = Tock_crypto.Hmac.mac_bytes ~key msg in
  let check what key (got, cycles) =
    Alcotest.(check string) what (hex (expect key)) (hex got);
    Alcotest.(check int) (what ^ ": cycles") 160 cycles
  in
  let k1 = Bytes.of_string "first key, 16 B" and k2 = Bytes.of_string "other key, 16 B" in
  check "cold" k1 (mac k1);
  check "warm" k1 (mac k1);
  check "same length, other bytes" k2 (mac k2);
  check "back to the first" k1 (mac k1);
  check "a fresh buffer with the same bytes" k1 (mac (Bytes.copy k1));
  (* The same buffer, rewritten: the cache must see the new bytes. *)
  let buf = Bytes.copy k1 in
  check "buffer before the rewrite" k1 (mac buf);
  Bytes.set buf 3 'X';
  check "buffer after the rewrite" buf (mac buf);
  let long = Bytes.make 100 'L' in
  check "a key longer than a block" long (mac long);
  check "the empty key" Bytes.empty (mac Bytes.empty)

let suite =
  [
    Alcotest.test_case "uart tx timing" `Quick test_uart_tx;
    Alcotest.test_case "uart rx + overrun" `Quick test_uart_rx_and_overrun;
    Alcotest.test_case "uart one receive in flight" `Quick test_uart_rx_one_in_flight;
    Alcotest.test_case "uart configure" `Quick test_uart_configure;
    Alcotest.test_case "spi polarity" `Quick test_spi_polarity;
    Alcotest.test_case "i2c" `Quick test_i2c;
    Alcotest.test_case "gpio interrupts" `Quick test_gpio_interrupts;
    Alcotest.test_case "led + button" `Quick test_led_button;
    Alcotest.test_case "timer basics" `Quick test_timer_basic;
    Alcotest.test_case "timer wrap semantics" `Quick test_timer_expired_semantics;
    Alcotest.test_case "past alarm fires" `Quick test_timer_past_alarm_fires;
    Alcotest.test_case "trng" `Quick test_trng;
    Alcotest.test_case "flash NOR semantics" `Quick test_flash_nor_semantics;
    Alcotest.test_case "radio delivery" `Quick test_radio_delivery;
    Alcotest.test_case "sensors" `Quick test_sensors;
    Alcotest.test_case "split-phase engines pinned by golden MD5" `Quick
      test_engines_golden;
    Alcotest.test_case "sha hmac key cache" `Quick test_sha_key_cache;
  ]
