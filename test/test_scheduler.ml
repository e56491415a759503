(* Scheduler policies in isolation (decision logic) and on the kernel
   (fairness, demotion, stickiness). *)

open! Helpers
open Tock

(* A fake process table: schedulers only look at ids. *)
let fake_procs board n =
  List.init n (fun i ->
      add_app_exn board ~name:(Printf.sprintf "p%d" i) Tock_userland.Apps.spinner)

(* One decision over [runnable] (ascending ids), as the kernel asks for
   it: the picked process and its slice, or [None] when idle. *)
let decide s runnable =
  let a = Array.of_list runnable in
  match s.Scheduler.next a (Array.length a) with
  | -1 -> None
  | i -> Some (a.(i), s.Scheduler.timeslice a.(i))

let test_rr_rotation () =
  let board = make_board () in
  let procs = fake_procs board 3 in
  let s = Scheduler.round_robin () in
  let pick () =
    match decide s procs with Some (proc, _) -> Process.id proc | None -> -1
  in
  let seq = List.init 6 (fun _ -> pick ()) in
  Alcotest.(check (list int)) "rotates fairly" [ 0; 1; 2; 0; 1; 2 ] seq

let test_rr_skips_missing () =
  let board = make_board () in
  let procs = fake_procs board 3 in
  let s = Scheduler.round_robin () in
  (match decide s procs with
  | Some (proc, _) -> Alcotest.(check int) "first" 0 (Process.id proc)
  | None -> Alcotest.fail "idle");
  (* p1 blocks: only 0 and 2 runnable. *)
  let runnable = List.filteri (fun i _ -> i <> 1) procs in
  match decide s runnable with
  | Some (proc, _) -> Alcotest.(check int) "skips blocked" 2 (Process.id proc)
  | None -> Alcotest.fail "idle"

let test_idle_when_empty () =
  let s = Scheduler.round_robin () in
  Alcotest.(check int) "idle" (-1) (s.Scheduler.next [||] 0)

let test_priority_strict () =
  let board = make_board () in
  let procs = fake_procs board 3 in
  let s = Scheduler.priority () in
  (* Lowest id always wins while runnable. *)
  for _ = 1 to 3 do
    match decide s procs with
    | Some (proc, _) -> Alcotest.(check int) "p0 wins" 0 (Process.id proc)
    | None -> Alcotest.fail "idle"
  done;
  match decide s (List.tl procs) with
  | Some (proc, _) -> Alcotest.(check int) "then p1" 1 (Process.id proc)
  | None -> Alcotest.fail "idle"

let test_mlfq_demotion () =
  let board = make_board () in
  let procs = fake_procs board 2 in
  let p0 = List.nth procs 0 and p1 = List.nth procs 1 in
  let s = Scheduler.mlfq ~levels:3 ~base_slice:1000 ~boost_every:1000 () in
  (* p0 burns full slices -> sinks; p1 yields early -> stays on top. *)
  let slice_of p =
    match decide s [ p ] with Some (_, Some t) -> t | _ -> -1
  in
  Alcotest.(check int) "both start at base" 1000 (slice_of p0);
  s.Scheduler.charge p0 Scheduler.Used_full_slice;
  s.Scheduler.charge p1 Scheduler.Yielded_early;
  Alcotest.(check int) "hog demoted (2x slice)" 2000 (slice_of p0);
  s.Scheduler.charge p0 Scheduler.Used_full_slice;
  Alcotest.(check int) "hog demoted again" 4000 (slice_of p0);
  s.Scheduler.charge p0 Scheduler.Used_full_slice;
  Alcotest.(check int) "bottom level caps" 4000 (slice_of p0);
  Alcotest.(check int) "interactive stays on top" 1000 (slice_of p1);
  (* With both runnable, the higher-priority (lower level) one is chosen. *)
  match decide s procs with
  | Some (proc, _) ->
      Alcotest.(check int) "interactive preferred" 1 (Process.id proc)
  | None -> Alcotest.fail "idle"

let test_mlfq_boost () =
  let board = make_board () in
  let procs = fake_procs board 1 in
  let p0 = List.hd procs in
  let s = Scheduler.mlfq ~levels:3 ~base_slice:1000 ~boost_every:5 () in
  s.Scheduler.charge p0 Scheduler.Used_full_slice;
  s.Scheduler.charge p0 Scheduler.Used_full_slice;
  (* after boost_every decisions, everyone returns to the top level *)
  for _ = 1 to 6 do
    ignore (decide s procs)
  done;
  match decide s procs with
  | Some (_, Some t) -> Alcotest.(check int) "boosted to base slice" 1000 t
  | _ -> Alcotest.fail "idle"

let test_cooperative_sticky () =
  let board = make_board () in
  let procs = fake_procs board 2 in
  let s = Scheduler.cooperative () in
  let pick runnable =
    match decide s runnable with
    | Some (proc, timeslice) ->
        Alcotest.(check bool) "no timeslice" true (timeslice = None);
        Process.id proc
    | None -> -1
  in
  Alcotest.(check int) "starts with p0" 0 (pick procs);
  (* Used_full_slice = still running: stays with p0. *)
  s.Scheduler.charge (List.hd procs) Scheduler.Used_full_slice;
  Alcotest.(check int) "sticks with p0" 0 (pick procs);
  (* yields: moves on *)
  s.Scheduler.charge (List.hd procs) Scheduler.Yielded_early;
  Alcotest.(check int) "moves to p1" 1 (pick procs)

let test_kernel_fairness_rr () =
  (* Two identical workers under RR finish with similar syscall progress. *)
  let board = make_board () in
  let mk a =
    for _ = 1 to 5 do
      Tock_userland.Emu.work a 3000;
      Tock_userland.Libtock_sync.sleep_ticks a 16
    done;
    Tock_userland.Libtock.exit a 0
  in
  let p1 = add_app_exn board ~name:"w1" mk in
  let p2 = add_app_exn board ~name:"w2" mk in
  run_done board ~max_cycles:200_000_000;
  Alcotest.(check bool) "both finished" true
    (Process.state p1 = Process.Terminated { code = 0 }
    && Process.state p2 = Process.Terminated { code = 0 });
  Alcotest.(check int) "same syscalls" (Process.syscall_count p1)
    (Process.syscall_count p2)

let suite =
  [
    Alcotest.test_case "rr rotation" `Quick test_rr_rotation;
    Alcotest.test_case "rr skips blocked" `Quick test_rr_skips_missing;
    Alcotest.test_case "idle when empty" `Quick test_idle_when_empty;
    Alcotest.test_case "priority strict" `Quick test_priority_strict;
    Alcotest.test_case "mlfq demotion" `Quick test_mlfq_demotion;
    Alcotest.test_case "mlfq boost" `Quick test_mlfq_boost;
    Alcotest.test_case "cooperative sticky" `Quick test_cooperative_sticky;
    Alcotest.test_case "kernel fairness (rr)" `Quick test_kernel_fairness_rr;
  ]
