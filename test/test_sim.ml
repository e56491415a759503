(* Event queue, simulation clock, power metering, interrupt controller,
   and the MMIO register DSL. *)

open! Helpers
open Tock_hw

let test_event_queue_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  let ev tag = fun () -> log := tag :: !log in
  ignore (Event_queue.schedule q ~time:30 (ev "c"));
  ignore (Event_queue.schedule q ~time:10 (ev "a"));
  ignore (Event_queue.schedule q ~time:20 (ev "b"));
  (* same-time events fire in insertion order *)
  ignore (Event_queue.schedule q ~time:20 (ev "b2"));
  Alcotest.(check (option int)) "next" (Some 10) (Event_queue.next_time q);
  let rec drain now =
    match Event_queue.pop_due q ~now with
    | Some fn -> fn (); drain now
    | None -> ()
  in
  drain 100;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "b2"; "c" ] (List.rev !log)

let test_event_queue_cancel () =
  let q = Event_queue.create () in
  let fired = ref false in
  let h = Event_queue.schedule q ~time:5 (fun () -> fired := true) in
  Event_queue.cancel q h;
  Event_queue.cancel q h; (* double-cancel is a no-op *)
  Alcotest.(check (option int)) "empty after cancel" None (Event_queue.next_time q);
  Alcotest.(check bool) "did not fire" true (not !fired);
  Alcotest.(check int) "size" 0 (Event_queue.size q)

let event_queue_prop =
  qcheck "event queue: pops in nondecreasing time order"
    QCheck2.Gen.(list_size (1 -- 100) (int_range 0 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.schedule q ~time:t ignore)) times;
      let rec collect acc =
        match Event_queue.next_time q with
        | None -> List.rev acc
        | Some t ->
            ignore (Event_queue.pop_due q ~now:t);
            collect (t :: acc)
      in
      let popped = collect [] in
      popped = List.sort compare times)

let test_sim_time () =
  let sim = Sim.create () in
  Alcotest.(check int) "starts at 0" 0 (Sim.now sim);
  Sim.spend sim 100;
  Alcotest.(check int) "spend" 100 (Sim.now sim);
  Alcotest.(check int) "active" 100 (Sim.active_cycles sim);
  let fired = ref 0 in
  ignore (Sim.at sim ~delay:50 (fun () -> incr fired));
  ignore (Sim.at sim ~delay:500 (fun () -> incr fired));
  Alcotest.(check bool) "advance" true (Sim.advance_to_next_event sim);
  Alcotest.(check int) "at first event" 150 (Sim.now sim);
  Alcotest.(check int) "one fired" 1 !fired;
  Alcotest.(check int) "slept" 50 (Sim.sleep_cycles sim);
  Sim.sleep_until sim 1000;
  Alcotest.(check int) "both fired" 2 !fired;
  Alcotest.(check int) "slept to deadline" (Sim.now sim) 1000

let test_sim_events_fire_during_spend () =
  let sim = Sim.create () in
  let at = ref (-1) in
  ignore (Sim.at sim ~delay:10 (fun () -> at := Sim.now sim));
  Sim.spend sim 25;
  Alcotest.(check int) "fired during spend (at end)" 25 !at

let test_power_meter () =
  let sim = Sim.create ~clock_hz:1_000_000 () in
  let m = Sim.meter sim ~name:"dev" in
  Sim.meter_set_ua sim m 1000;
  Sim.spend sim 1_000_000; (* 1 s at 1 mA -> 3.3 V * 1 mA * 1 s = 3300 µJ *)
  Sim.meter_set_ua sim m 0;
  Sim.spend sim 1_000_000; (* drawing nothing *)
  let report = Sim.energy_report sim in
  let uj = List.assoc "dev" report in
  Alcotest.(check bool) "3300 uJ" true (abs_float (uj -. 3300.) < 1.)

let test_irq () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  let log = ref [] in
  Irq.register irq ~line:3 ~name:"three" (fun () -> log := 3 :: !log);
  Irq.register irq ~line:1 ~name:"one" (fun () -> log := 1 :: !log);
  Irq.set_pending irq ~line:3;
  Alcotest.(check bool) "disabled lines don't show" false (Irq.has_pending irq);
  Irq.enable irq ~line:3;
  Irq.enable irq ~line:1;
  Alcotest.(check bool) "pending after enable" true (Irq.has_pending irq);
  Irq.set_pending irq ~line:1;
  let n = Irq.service irq in
  Alcotest.(check int) "two serviced" 2 n;
  Alcotest.(check (list int)) "lowest line first" [ 1; 3 ] (List.rev !log);
  Alcotest.(check bool) "clear" false (Irq.has_pending irq)

let test_irq_reassert_during_handler () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  let count = ref 0 in
  Irq.register irq ~line:0 ~name:"re" (fun () ->
      incr count;
      if !count = 1 then Irq.set_pending irq ~line:0);
  Irq.enable irq ~line:0;
  Irq.set_pending irq ~line:0;
  let n = Irq.service irq in
  Alcotest.(check int) "serviced twice in one call" 2 n

let test_mmio () =
  let open Mmio in
  let started = ref 0 in
  let en = field ~offset:0 ~width:1 in
  let mode = field ~offset:4 ~width:3 in
  let m =
    map ~name:"periph" ~base:0x4000_1000
      [
        reg ~name:"CTRL" ~offset:0 Read_write;
        reg ~name:"STATUS" ~offset:4 Read_only ~reset:0x80;
        reg ~name:"START" ~offset:8 Write_only
          ~on_write:(fun ~old:_ v -> incr started; v);
      ]
  in
  write m "CTRL" 0;
  set m "CTRL" mode 5;
  set m "CTRL" en 1;
  Alcotest.(check int) "field insert" 0x51 (read m "CTRL");
  Alcotest.(check int) "field extract" 5 (get m "CTRL" mode);
  Alcotest.(check bool) "is_set" true (is_set m "CTRL" en);
  set m "CTRL" en 0;
  Alcotest.(check int) "field clear preserves others" 0x50 (read m "CTRL");
  Alcotest.(check int) "reset value" 0x80 (read m "STATUS");
  Alcotest.check_raises "write RO"
    (Access_violation "periph.STATUS is read-only") (fun () ->
      write m "STATUS" 1);
  Alcotest.check_raises "read WO"
    (Access_violation "periph.START is write-only") (fun () ->
      ignore (read m "START"));
  write m "START" 1;
  Alcotest.(check int) "write hook ran" 1 !started;
  (* address-based access *)
  Alcotest.(check int) "read_addr" 0x50 (read_addr m 0x4000_1000);
  write_addr m 0x4000_1000 0xFF;
  Alcotest.(check int) "write_addr" 0xFF (read m "CTRL");
  (* hardware backdoor ignores software permissions *)
  hw_set m "STATUS" 0x42;
  Alcotest.(check int) "hw_set" 0x42 (read m "STATUS")

let test_mmio_bad_decl () =
  Alcotest.(check bool) "duplicate offset rejected" true
    (try
       ignore
         (Mmio.map ~name:"x" ~base:0
            [ Mmio.reg ~name:"A" ~offset:0 Mmio.Read_write;
              Mmio.reg ~name:"B" ~offset:0 Mmio.Read_write ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "field overflow rejected" true
    (try ignore (Mmio.field ~offset:30 ~width:4); false
     with Invalid_argument _ -> true)

let test_sleep_accounting () =
  (* Regression for the single-probe sleep_until/advance_to_next_event
     path: sleep/active cycle totals must match the event timeline
     exactly, including events that reschedule themselves. *)
  let sim = Sim.create () in
  let fired = ref [] in
  let rec periodic n () =
    fired := Sim.now sim :: !fired;
    if n > 1 then ignore (Sim.at sim ~delay:100 (periodic (n - 1)))
  in
  Sim.spend sim 40;
  ignore (Sim.at sim ~delay:60 (periodic 3));
  (* 100, 200, 300 *)
  Sim.sleep_until sim 250;
  Alcotest.(check int) "woke at deadline" 250 (Sim.now sim);
  Alcotest.(check (list int)) "two fired" [ 100; 200 ] (List.rev !fired);
  Alcotest.(check int) "active" 40 (Sim.active_cycles sim);
  Alcotest.(check int) "sleep" 210 (Sim.sleep_cycles sim);
  Alcotest.(check bool) "third pending" true (Sim.advance_to_next_event sim);
  Alcotest.(check int) "at third" 300 (Sim.now sim);
  Alcotest.(check (list int)) "all fired" [ 100; 200; 300 ] (List.rev !fired);
  Alcotest.(check int) "sleep after advance" 260 (Sim.sleep_cycles sim);
  (* No events left: sleep_until just burns sleep cycles. *)
  Alcotest.(check bool) "no more events" false (Sim.advance_to_next_event sim);
  Sim.sleep_until sim 500;
  Alcotest.(check int) "final time" 500 (Sim.now sim);
  Alcotest.(check int) "final sleep" 460 (Sim.sleep_cycles sim);
  Alcotest.(check int) "active unchanged" 40 (Sim.active_cycles sim)

let test_cancelled_next_due () =
  (* A cancelled earliest event must not stop later events from firing
     (the cached next-deadline may be stale-early, never stale-late). *)
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.at sim ~delay:10 (fun () -> Alcotest.fail "cancelled fired") in
  ignore (Sim.at sim ~delay:20 (fun () -> fired := true));
  Sim.cancel sim h;
  Sim.spend sim 30;
  Alcotest.(check bool) "later event fired" true !fired

(* Retained events as (cycle, label), oldest first. *)
let notes tr =
  let acc = ref [] in
  Tock_obs.Trace.iter tr (fun e ->
      acc := (e.Tock_obs.Trace.e_ts, Tock_obs.Trace.label e) :: !acc);
  List.rev !acc

let test_trace_disabled () =
  let sim = Sim.create ~trace_capacity:0 () in
  let tr = Sim.trace_events sim in
  Alcotest.(check bool) "disabled" false (Tock_obs.Trace.on tr);
  Tock_obs.Trace.note tr ~ts:(Sim.now sim) "dropped";
  (* The one hardware note, a write to an input pin, is skipped too. *)
  let irq = Irq.create sim in
  let g = Gpio.create sim irq ~irq_line:4 ~pins:2 in
  Gpio.set g ~pin:0 true;
  Alcotest.(check int) "nothing recorded" 0 (Tock_obs.Trace.total tr);
  Alcotest.(check (list (pair int string))) "ring empty" [] (notes tr);
  (* And the default-capacity ring records both. *)
  let sim2 = Sim.create () in
  let tr2 = Sim.trace_events sim2 in
  Alcotest.(check bool) "enabled by default" true (Tock_obs.Trace.on tr2);
  let g2 = Gpio.create sim2 (Irq.create sim2) ~irq_line:4 ~pins:2 in
  Sim.spend sim2 5;
  Gpio.set g2 ~pin:1 true;
  Tock_obs.Trace.note tr2 ~ts:(Sim.now sim2) "built";
  Alcotest.(check (list (pair int string))) "recorded"
    [ (5, "gpio: write to input pin 1 ignored"); (5, "built") ]
    (notes tr2)

let test_trace () =
  let sim = Sim.create () in
  let tr = Sim.trace_events sim in
  Sim.spend sim 7;
  Tock_obs.Trace.note tr ~ts:(Sim.now sim) "hello";
  Sim.spend sim 3;
  Tock_obs.Trace.note tr ~ts:(Sim.now sim) "world";
  match notes tr with
  | [ (7, "hello"); (10, "world") ] -> ()
  | l -> Alcotest.failf "unexpected trace (%d entries)" (List.length l)

let suite =
  [
    Alcotest.test_case "event queue ordering" `Quick test_event_queue_order;
    Alcotest.test_case "event queue cancel" `Quick test_event_queue_cancel;
    event_queue_prop;
    Alcotest.test_case "sim time" `Quick test_sim_time;
    Alcotest.test_case "events during spend" `Quick test_sim_events_fire_during_spend;
    Alcotest.test_case "power meter" `Quick test_power_meter;
    Alcotest.test_case "irq basics" `Quick test_irq;
    Alcotest.test_case "irq reassert" `Quick test_irq_reassert_during_handler;
    Alcotest.test_case "mmio dsl" `Quick test_mmio;
    Alcotest.test_case "mmio bad declarations" `Quick test_mmio_bad_decl;
    Alcotest.test_case "trace ring" `Quick test_trace;
    Alcotest.test_case "trace disabled" `Quick test_trace_disabled;
  ]
