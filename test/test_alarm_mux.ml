(* Timer virtualization (paper §5.4): ordering, cancellation, re-arm from
   callbacks, and wrap-around properties over the 32-bit tick space. *)

open! Helpers
open Tock_hw

let setup ?(cycles_per_tick = 16) () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  let hw = Hw_timer.create sim irq ~irq_line:6 ~cycles_per_tick in
  let mux = Tock_capsules.Alarm_mux.create (Tock.Adaptors.alarm hw) in
  (* Pump the simulation: events fire, then top halves run. *)
  let pump () =
    let rec go guard =
      if guard > 0 && Sim.advance_to_next_event sim then begin
        ignore (Irq.service irq);
        go (guard - 1)
      end
    in
    go 10_000
  in
  (sim, irq, mux, pump)

let test_ordering () =
  let _, _, mux, pump = setup () in
  let log = ref [] in
  let mk tag dt =
    let v = Tock_capsules.Alarm_mux.new_alarm mux in
    Tock_capsules.Alarm_mux.set_client v (fun () -> log := tag :: !log);
    Tock_capsules.Alarm_mux.set_relative v ~dt
  in
  mk "c" 300;
  mk "a" 100;
  mk "b" 200;
  pump ();
  Alcotest.(check (list string)) "fired in deadline order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_cancel () =
  let _, _, mux, pump = setup () in
  let fired = ref 0 in
  let v1 = Tock_capsules.Alarm_mux.new_alarm mux in
  let v2 = Tock_capsules.Alarm_mux.new_alarm mux in
  Tock_capsules.Alarm_mux.set_client v1 (fun () -> incr fired);
  Tock_capsules.Alarm_mux.set_client v2 (fun () -> incr fired);
  Tock_capsules.Alarm_mux.set_relative v1 ~dt:50;
  Tock_capsules.Alarm_mux.set_relative v2 ~dt:100;
  Tock_capsules.Alarm_mux.cancel v1;
  Alcotest.(check bool) "v1 disarmed" false (Tock_capsules.Alarm_mux.is_armed v1);
  Alcotest.(check int) "one armed" 1 (Tock_capsules.Alarm_mux.armed_count mux);
  pump ();
  Alcotest.(check int) "only v2 fired" 1 !fired

let test_rearm_from_callback () =
  (* A periodic alarm that re-arms itself inside its own callback — the
     pattern that makes the mux's fire/rearm logic subtle. *)
  let _, _, mux, pump = setup () in
  let count = ref 0 in
  let v = Tock_capsules.Alarm_mux.new_alarm mux in
  Tock_capsules.Alarm_mux.set_client v (fun () ->
      incr count;
      if !count < 5 then Tock_capsules.Alarm_mux.set_relative v ~dt:20);
  Tock_capsules.Alarm_mux.set_relative v ~dt:20;
  pump ();
  Alcotest.(check int) "five periods" 5 !count;
  Alcotest.(check int) "fired_total" 5 (Tock_capsules.Alarm_mux.fired_total mux)

let test_same_deadline () =
  let _, _, mux, pump = setup () in
  let fired = ref 0 in
  for _ = 1 to 4 do
    let v = Tock_capsules.Alarm_mux.new_alarm mux in
    Tock_capsules.Alarm_mux.set_client v (fun () -> incr fired);
    Tock_capsules.Alarm_mux.set_relative v ~dt:64
  done;
  pump ();
  Alcotest.(check int) "all four fired" 4 !fired

let test_already_expired_alarm () =
  let sim, _, mux, pump = setup () in
  Sim.spend sim 10_000;
  let fired = ref false in
  let v = Tock_capsules.Alarm_mux.new_alarm mux in
  Tock_capsules.Alarm_mux.set_client v (fun () -> fired := true);
  (* Reference far in the past: expired already, must fire promptly. *)
  Tock_capsules.Alarm_mux.set_alarm v ~reference:0 ~dt:1;
  pump ();
  Alcotest.(check bool) "fired" true !fired

(* The start tick: 0, or one of the last 600 ticks before the 32-bit
   counter wraps, so deadlines up to 500 ticks out straddle the wrap. *)
let start_gen =
  QCheck2.Gen.(oneof [ pure 0; map (fun k -> (1 lsl 32) - k) (1 -- 600) ])

let alarm_count_prop =
  (* Against a model with its own wrapping arithmetic: every armed
     alarm fires exactly once, exactly at its deadline tick
     ((now - reference) mod 2^32 = dt), and fires come in non-decreasing
     dt order — from tick 0 and across the wrap (§5.4). *)
  qcheck ~count:100 "alarm mux: each armed alarm fires exactly once"
    QCheck2.Gen.(pair start_gen (list_size (1 -- 12) (int_range 1 500)))
    (fun (start, dts) ->
      let cycles_per_tick = 16 in
      let sim, _, mux, pump = setup ~cycles_per_tick () in
      Sim.spend sim (start * cycles_per_tick);
      let fires = ref [] in
      List.iteri
        (fun i dt ->
          let v = Tock_capsules.Alarm_mux.new_alarm mux in
          let reference = Tock_capsules.Alarm_mux.now v in
          Tock_capsules.Alarm_mux.set_client v (fun () ->
              let now = Tock_capsules.Alarm_mux.now v in
              fires := (i, (now - reference) land 0xFFFF_FFFF) :: !fires);
          Tock_capsules.Alarm_mux.set_relative v ~dt)
        dts;
      pump ();
      let fires = List.rev !fires in
      let dts = Array.of_list dts in
      let fired_dts = List.map (fun (i, _) -> dts.(i)) fires in
      List.sort compare (List.map fst fires) = List.init (Array.length dts) Fun.id
      && List.for_all (fun (i, elapsed) -> elapsed = dts.(i)) fires
      && List.sort compare fired_dts = fired_dts)

let suite =
  [
    Alcotest.test_case "deadline ordering" `Quick test_ordering;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "re-arm from callback" `Quick test_rearm_from_callback;
    Alcotest.test_case "same deadline" `Quick test_same_deadline;
    Alcotest.test_case "already expired" `Quick test_already_expired_alarm;
    alarm_count_prop;
  ]
