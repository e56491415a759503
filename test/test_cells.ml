(* Cells (interior mutability), SubSlice, and the ring buffer. *)

open! Helpers
open Tock

let test_cell () =
  let c = Cells.Cell.make 1 in
  Cells.Cell.set c 2;
  Alcotest.(check int) "set/get" 2 (Cells.Cell.get c);
  Alcotest.(check int) "replace returns old" 2 (Cells.Cell.replace c 3);
  Cells.Cell.update c succ;
  Alcotest.(check int) "update" 4 (Cells.Cell.get c)

let test_optional_cell () =
  let c = Cells.Optional_cell.empty () in
  Alcotest.(check bool) "empty" false (Cells.Optional_cell.is_some c);
  Cells.Optional_cell.set c 7;
  Alcotest.(check (option int)) "map" (Some 8) (Cells.Optional_cell.map c succ);
  Alcotest.(check (option int)) "take" (Some 7) (Cells.Optional_cell.take c);
  Alcotest.(check (option int)) "take empties" None (Cells.Optional_cell.get c);
  Alcotest.(check int) "get_or" 42 (Cells.Optional_cell.get_or c 42)

let test_take_cell () =
  let c = Cells.Take_cell.make "buffer" in
  Alcotest.(check (option string)) "take" (Some "buffer") (Cells.Take_cell.take c);
  Alcotest.(check bool) "now empty" true (Cells.Take_cell.is_none c);
  Cells.Take_cell.put c "buffer";
  Alcotest.check_raises "double put rejected"
    (Invalid_argument "Take_cell.put: cell already full") (fun () ->
      Cells.Take_cell.put c "again");
  Alcotest.(check (option string)) "replace" (Some "buffer")
    (Cells.Take_cell.replace c "new")

let test_take_cell_reentrancy () =
  (* The classic Tock scenario: a client callback re-enters the capsule,
     which tries to map the same cell. The value is absent during the
     outer map, so the inner operation observes None instead of
     corrupting state. *)
  let c = Cells.Take_cell.make 10 in
  let before = Cells.Take_cell.reentrancy_refusals () in
  let inner = ref (Some 0) in
  let outer =
    Cells.Take_cell.map c (fun v ->
        inner := Cells.Take_cell.map c (fun w -> w * 100);
        v + 1)
  in
  Alcotest.(check (option int)) "outer ran" (Some 11) outer;
  Alcotest.(check (option int)) "inner refused" None !inner;
  Alcotest.(check int) "refusal counted" (before + 1)
    (Cells.Take_cell.reentrancy_refusals ());
  Alcotest.(check (option int)) "value restored" (Some 10)
    (Cells.Take_cell.take c)

let test_take_cell_map_exception () =
  let c = Cells.Take_cell.make 5 in
  (try ignore (Cells.Take_cell.map c (fun _ -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" false (Cells.Take_cell.is_none c)

let test_take_cell_map_installs_new () =
  (* If the closure installs a replacement, map must not clobber it. *)
  let c = Cells.Take_cell.make 1 in
  ignore (Cells.Take_cell.map c (fun _ -> Cells.Take_cell.put c 99));
  Alcotest.(check (option int)) "replacement kept" (Some 99) (Cells.Take_cell.take c)

(* ---- SubSlice ---- *)

let test_subslice_basic () =
  let s = Subslice.of_bytes (Bytes.of_string "0123456789") in
  Alcotest.(check int) "full" 10 (Subslice.length s);
  Subslice.slice s ~pos:2 ~len:5;
  Alcotest.(check int) "window" 5 (Subslice.length s);
  Alcotest.(check char) "relative get" '2' (Subslice.get s 0);
  Subslice.set s 0 'X';
  Subslice.slice_from s 1;
  Alcotest.(check char) "nested window" '3' (Subslice.get s 0);
  Subslice.reset s;
  Alcotest.(check int) "reset" 10 (Subslice.length s);
  Alcotest.(check char) "write visible through reset" 'X' (Subslice.get s 2)

let test_subslice_bounds () =
  let s = Subslice.create 8 in
  Subslice.slice s ~pos:2 ~len:4;
  Alcotest.check_raises "past window"
    (Invalid_argument "Subslice: index outside window") (fun () ->
      ignore (Subslice.get s 4));
  Alcotest.check_raises "slice past window"
    (Invalid_argument "Subslice.slice: outside current window") (fun () ->
      Subslice.slice s ~pos:0 ~len:5)

let subslice_window_prop =
  qcheck "subslice: any slice sequence keeps window within the buffer"
    QCheck2.Gen.(pair (int_range 1 256) (list_size (0 -- 20) (pair (int_range 0 64) (int_range 0 64))))
    (fun (size, ops) ->
      let s = Subslice.create size in
      List.iter
        (fun (pos, len) ->
          (try Subslice.slice s ~pos ~len with Invalid_argument _ -> ());
          if Subslice.length s = 0 then Subslice.reset s)
        ops;
      let start, len = Subslice.window s in
      start >= 0 && len >= 0 && start + len <= size)

let subslice_reset_prop =
  qcheck "subslice: reset always restores the full buffer"
    QCheck2.Gen.(pair (int_range 1 128) (int_range 0 127))
    (fun (size, pos) ->
      let s = Subslice.create size in
      let pos = pos mod size in
      Subslice.slice s ~pos ~len:(size - pos);
      Subslice.reset s;
      Subslice.length s = size && fst (Subslice.window s) = 0)

let test_subslice_copy () =
  let a = Subslice.of_bytes (Bytes.of_string "abcdef") in
  let b = Subslice.create 4 in
  Subslice.slice a ~pos:1 ~len:3;
  Subslice.copy_within a b;
  Alcotest.(check string) "copy" "bcd\x00" (Bytes.to_string (Subslice.to_bytes b))

(* ---- entry ring ---- *)

(* One-int entries: the value goes where [push] says. *)
let push1 r v =
  let o = Ring_buffer.push r in
  if o >= 0 then (Ring_buffer.data r).(o) <- v;
  o >= 0

let oldest r = (Ring_buffer.data r).(Ring_buffer.offset r 0)

let pop1 r =
  if Ring_buffer.length r = 0 then None
  else begin
    let v = oldest r in
    Ring_buffer.remove r 0;
    Some v
  end

let test_ring_basic () =
  let r = Ring_buffer.create ~capacity:3 ~width:1 in
  Alcotest.(check bool) "push" true (push1 r 1);
  ignore (push1 r 2);
  ignore (push1 r 3);
  Alcotest.(check bool) "full rejects" false (push1 r 4);
  Alcotest.(check int) "drop counted" 1 (Ring_buffer.drops r);
  Alcotest.(check (option int)) "fifo" (Some 1) (pop1 r);
  ignore (push1 r 4);
  Alcotest.(check int) "peek" 2 (oldest r);
  Alcotest.(check int) "length" 3 (Ring_buffer.length r)

(* Two-int entries keyed (v mod 3, v), laid across the wrap. *)
let test_ring_find_remove () =
  let r = Ring_buffer.create ~capacity:8 ~width:2 in
  let push v =
    let o = Ring_buffer.push r in
    (Ring_buffer.data r).(o) <- v mod 3;
    (Ring_buffer.data r).(o + 1) <- v
  in
  List.iter push [ 1; 2; 3; 4; 5 ];
  for _ = 1 to 3 do
    Ring_buffer.remove r 0
  done;
  List.iter push [ 6; 7; 8; 9; 10 ];
  let i = Ring_buffer.find r 0 9 in
  Alcotest.(check int) "finds first match" 5 i;
  Ring_buffer.remove r i;
  let rest =
    List.init (Ring_buffer.length r) (fun i ->
        (Ring_buffer.data r).(Ring_buffer.offset r i + 1))
  in
  Alcotest.(check (list int)) "order preserved" [ 4; 5; 6; 7; 8; 10 ] rest;
  Alcotest.(check int) "no match" (-1) (Ring_buffer.find r 0 42)

(* Pushes ([Some x]) and pops ([None]) interleaved, so entries wrap and
   the ring grows with entries queued: it must pop what a plain queue
   pops. *)
let ring_fifo_prop =
  qcheck "ring buffer: pops are pushes in order (within capacity)"
    QCheck2.Gen.(list_size (0 -- 60) (option ~ratio:0.7 (int_range 0 100)))
    (fun ops ->
      let r = Ring_buffer.create ~capacity:64 ~width:1 in
      let q = Queue.create () in
      List.for_all
        (function
          | Some x ->
              ignore (push1 r x);
              Queue.push x q;
              true
          | None -> pop1 r = Queue.take_opt q)
        ops
      && List.of_seq (Queue.to_seq q)
         = List.init (Ring_buffer.length r) (fun i ->
               (Ring_buffer.data r).(Ring_buffer.offset r i)))

(* ---- bytes ring (bulk byte FIFO for batched UART drains) ---- *)

let test_bytes_ring_basic () =
  let r = Ring_buffer.Bytes_ring.create ~capacity:8 in
  Alcotest.(check int) "accepts all" 5
    (Ring_buffer.Bytes_ring.push_string r "hello");
  Alcotest.(check int) "length" 5 (Ring_buffer.Bytes_ring.length r);
  Alcotest.(check int) "free" 3 (Ring_buffer.Bytes_ring.free r);
  let dst = Subslice.create 3 in
  Alcotest.(check int) "partial pop" 3 (Ring_buffer.Bytes_ring.pop_into r dst);
  Alcotest.(check string) "fifo bytes" "hel"
    (Bytes.to_string (Subslice.to_bytes dst));
  let dst2 = Subslice.create 8 in
  Alcotest.(check int) "drains rest" 2 (Ring_buffer.Bytes_ring.pop_into r dst2);
  Alcotest.(check bool) "empty" true (Ring_buffer.Bytes_ring.is_empty r)

let test_bytes_ring_wrap_and_drop () =
  let r = Ring_buffer.Bytes_ring.create ~capacity:8 in
  (* Advance head so subsequent pushes wrap around the end. *)
  ignore (Ring_buffer.Bytes_ring.push_string r "abcdef");
  let d = Subslice.create 5 in
  ignore (Ring_buffer.Bytes_ring.pop_into r d);
  Alcotest.(check int) "wrapping push accepted" 6
    (Ring_buffer.Bytes_ring.push_slice r (Bytes.of_string "ghijkl") ~pos:0
       ~len:6);
  (* Ring now holds "fghijkl" (7 of 8); a 4-byte push only half fits. *)
  Alcotest.(check int) "partial accept" 1
    (Ring_buffer.Bytes_ring.push_string r "wxyz");
  Alcotest.(check int) "overflow counted" 3
    (Ring_buffer.Bytes_ring.dropped r);
  let out = Subslice.create 8 in
  Alcotest.(check int) "wrapped pop" 8 (Ring_buffer.Bytes_ring.pop_into r out);
  Alcotest.(check string) "wrapped contents in order" "fghijklw"
    (Bytes.to_string (Subslice.to_bytes out))

let bytes_ring_stream_prop =
  qcheck "bytes ring: popped stream equals accepted pushed stream"
    QCheck2.Gen.(
      pair (int_range 1 32)
        (list_size (0 -- 20) (pair (string_size (0 -- 24)) (int_range 1 16))))
    (fun (cap, ops) ->
      let r = Ring_buffer.Bytes_ring.create ~capacity:cap in
      let pushed = Buffer.create 64 in
      let popped = Buffer.create 64 in
      List.iter
        (fun (s, pop_n) ->
          let accepted =
            Ring_buffer.Bytes_ring.push_string r s
          in
          Buffer.add_substring pushed s 0 accepted;
          let dst = Subslice.create pop_n in
          let n = Ring_buffer.Bytes_ring.pop_into r dst in
          Subslice.slice_to dst n;
          Buffer.add_string popped (Bytes.to_string (Subslice.to_bytes dst)))
        ops;
      (* Drain the remainder. *)
      let dst = Subslice.create cap in
      let n = Ring_buffer.Bytes_ring.pop_into r dst in
      Subslice.slice_to dst n;
      Buffer.add_string popped (Bytes.to_string (Subslice.to_bytes dst));
      Buffer.contents pushed = Buffer.contents popped)

let suite =
  [
    Alcotest.test_case "cell" `Quick test_cell;
    Alcotest.test_case "optional cell" `Quick test_optional_cell;
    Alcotest.test_case "take cell" `Quick test_take_cell;
    Alcotest.test_case "take cell reentrancy" `Quick test_take_cell_reentrancy;
    Alcotest.test_case "take cell raise" `Quick test_take_cell_map_exception;
    Alcotest.test_case "take cell install" `Quick test_take_cell_map_installs_new;
    Alcotest.test_case "subslice basics" `Quick test_subslice_basic;
    Alcotest.test_case "subslice bounds" `Quick test_subslice_bounds;
    subslice_window_prop;
    subslice_reset_prop;
    Alcotest.test_case "subslice copy" `Quick test_subslice_copy;
    Alcotest.test_case "ring buffer" `Quick test_ring_basic;
    Alcotest.test_case "ring find_remove" `Quick test_ring_find_remove;
    ring_fifo_prop;
    Alcotest.test_case "bytes ring" `Quick test_bytes_ring_basic;
    Alcotest.test_case "bytes ring wrap/drop" `Quick test_bytes_ring_wrap_and_drop;
    bytes_ring_stream_prop;
  ]
