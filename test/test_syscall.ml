(* The register-level syscall ABI: encode/decode roundtrips for every call
   and return shape (TRD 104). *)

open! Helpers
open Tock

let gen_u16 = QCheck2.Gen.int_range 0 0xFFFF

let gen_u32 = QCheck2.Gen.int_range 0 0xFFFFFFF

(* Fields of a blocking command, 16 bits each in one register: in range
   most of the time, otherwise just outside it or anywhere. *)
let gen_blocking_field =
  QCheck2.Gen.(
    frequency
      [
        (6, gen_u16);
        (1, oneofl [ -1; 0x10000; 0x10005; 0x1FFFF; max_int; min_int ]);
        (1, int);
      ])

let gen_call =
  let open QCheck2.Gen in
  oneof
    [
      return (Syscall.Yield Syscall.Yield_no_wait);
      return (Syscall.Yield Syscall.Yield_wait);
      map2
        (fun driver subscribe_num ->
          Syscall.Yield (Syscall.Yield_wait_for { driver; subscribe_num }))
        gen_u32 gen_u16;
      map (fun (driver, subscribe_num, upcall_fn, appdata) ->
          Syscall.Subscribe { driver; subscribe_num; upcall_fn; appdata })
        (quad gen_u32 gen_u16 gen_u32 gen_u32);
      map (fun (driver, command_num, arg1, arg2) ->
          Syscall.Command { driver; command_num; arg1; arg2 })
        (quad gen_u32 gen_u16 gen_u32 gen_u32);
      map (fun (driver, allow_num, addr, len) ->
          Syscall.Allow_rw { driver; allow_num; addr; len })
        (quad gen_u32 gen_u16 gen_u32 gen_u32);
      map (fun (driver, allow_num, addr, len) ->
          Syscall.Allow_ro { driver; allow_num; addr; len })
        (quad gen_u32 gen_u16 gen_u32 gen_u32);
      map2 (fun op arg -> Syscall.Memop { op; arg }) (int_range 0 10) gen_u32;
      map2 (fun variant code -> Syscall.Exit { variant; code }) (int_range 0 1) gen_u32;
      map (fun (driver, command_num, arg1, (arg2, subscribe_num)) ->
          Syscall.Command_blocking { driver; command_num; arg1; arg2; subscribe_num })
        (quad gen_u32 gen_u16 gen_u32 (pair gen_blocking_field gen_blocking_field));
    ]

let blocking_in_range = function
  | Syscall.Command_blocking { arg2; subscribe_num; _ } ->
      arg2 >= 0 && arg2 <= 0xFFFF && subscribe_num >= 0
      && subscribe_num <= 0xFFFF
  | _ -> true

(* Every encodable call decodes back to itself; a blocking command whose
   fields do not fit the packing is refused, never silently rewritten. *)
let call_roundtrip =
  qcheck ~count:500 "syscall: decode (encode call) == call" gen_call
    (fun call ->
      match Syscall.encode_call call with
      | regs -> (
          blocking_in_range call
          &&
          match Syscall.decode_call regs with
          | Ok call' -> call = call'
          | Error _ -> false)
      | exception Invalid_argument _ -> not (blocking_in_range call))

(* The ABI's decode rules, restated independently of [Syscall]: the
   kernel's verdict and [decode_call] must both follow them. *)
let gen_frame =
  let open QCheck2.Gen in
  let cls = frequency [ (7, int_range 0 6); (1, return 0x80); (2, int) ] in
  let reg = oneof [ int_range (-1) 3; int_range 0 0xFFFF; int ] in
  int_range 0 7 >>= fun n ->
  cls >>= fun c ->
  int_range (-1) 3 >>= fun r0 ->
  list_repeat (max 0 (n - 2)) reg >|= fun rest ->
  Array.of_list (List.filteri (fun i _ -> i < n) (c :: r0 :: rest))

let expected_verdict regs =
  if Array.length regs <> 5 then `Inval
  else
    match regs.(0) with
    | 0 -> if regs.(1) >= 0 && regs.(1) <= 2 then `Class 0 else `Inval
    | c when c >= 1 && c <= 6 -> `Class c
    | 0x80 -> `Class 0x80
    | _ -> `Nosupport

let class_number_of_call = function
  | Syscall.Yield _ -> 0
  | Syscall.Subscribe _ -> 1
  | Syscall.Command _ -> 2
  | Syscall.Allow_rw _ -> 3
  | Syscall.Allow_ro _ -> 4
  | Syscall.Memop _ -> 5
  | Syscall.Exit _ -> 6
  | Syscall.Command_blocking _ -> 0x80

let verdict_matches_decoder =
  qcheck ~count:2_000 "syscall: kernel verdict == decode_call" gen_frame
    (fun regs ->
      let v = Syscall.verdict regs in
      match (expected_verdict regs, Syscall.decode_call regs) with
      | `Inval, Error Error.INVAL -> v = Syscall.verdict_inval
      | `Nosupport, Error Error.NOSUPPORT -> v = Syscall.verdict_nosupport
      | `Class c, Ok call ->
          class_number_of_call call = c
          && v = Syscall.class_index c
          && Syscall.class_of_index v = c
      | _ -> false)

let gen_error =
  QCheck2.Gen.oneofl
    [ Error.FAIL; Error.BUSY; Error.ALREADY; Error.OFF; Error.RESERVE;
      Error.INVAL; Error.SIZE; Error.CANCEL; Error.NOMEM; Error.NOSUPPORT;
      Error.NODEVICE; Error.UNINSTALLED; Error.NOACK ]

let gen_ret =
  let open QCheck2.Gen in
  oneof
    [
      map (fun e -> Syscall.Failure e) gen_error;
      map2 (fun e a -> Syscall.Failure_u32 (e, a)) gen_error gen_u32;
      map (fun (e, a, b) -> Syscall.Failure_u32_u32 (e, a, b))
        (triple gen_error gen_u32 gen_u32);
      return Syscall.Success;
      map (fun a -> Syscall.Success_u32 a) gen_u32;
      map2 (fun a b -> Syscall.Success_u32_u32 (a, b)) gen_u32 gen_u32;
      map (fun (a, b, c) -> Syscall.Success_u32_u32_u32 (a, b, c))
        (triple gen_u32 gen_u32 gen_u32);
    ]

let ret_roundtrip =
  qcheck "syscall: decode (encode ret) == ret" gen_ret (fun ret ->
      match Syscall.decode_ret (Syscall.encode_ret ret) with
      | Ok ret' -> ret = ret'
      | Error _ -> false)

let test_error_codes () =
  for i = 1 to 13 do
    match Error.of_int i with
    | Some e -> Alcotest.(check int) "of_int . to_int" i (Error.to_int e)
    | None -> Alcotest.failf "missing error code %d" i
  done;
  Alcotest.(check bool) "unknown code" true (Error.of_int 99 = None)

let test_decode_garbage () =
  (match Syscall.decode_call [| 0x55; 0; 0; 0; 0 |] with
  | Error Error.NOSUPPORT -> ()
  | _ -> Alcotest.fail "unknown class must be NOSUPPORT");
  (match Syscall.decode_call [| 0; 9; 0; 0; 0 |] with
  | Error Error.INVAL -> ()
  | _ -> Alcotest.fail "bad yield variant must be INVAL");
  (match Syscall.decode_call [| 0 |] with
  | Error Error.INVAL -> ()
  | _ -> Alcotest.fail "short register file must be INVAL");
  match Syscall.decode_ret [| 77; 0; 0; 0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown return tag accepted"

(* Out-of-range blocking-command fields are refused in userspace: Error
   INVAL, no trap. In range, the same call reaches the kernel. *)
let test_blocking_range_rejected () =
  let config =
    { (Kernel.default_config ()) with Kernel.blocking_commands = true }
  in
  let board = make_board ~config () in
  let results = ref [] in
  let app a =
    let p = Tock_userland.Emu.proc a in
    let attempt arg2 sub =
      let before = Process.syscall_count p in
      let r =
        Tock_userland.Libtock.command_blocking a ~driver:Driver_num.alarm
          ~cmd:5 ~arg1:2 ~arg2 ~sub
      in
      results := (arg2, sub, r, Process.syscall_count p - before) :: !results
    in
    attempt 0x10005 0;
    attempt (-1) 2;
    attempt 0 0x10000;
    attempt 0 0;
    Tock_userland.Libtock.exit a 0
  in
  ignore (add_app_exn board ~name:"blocker" app);
  run_done board;
  match List.rev !results with
  | [ (_, _, Error Error.INVAL, 0); (_, _, Error Error.INVAL, 0);
      (_, _, Error Error.INVAL, 0); (_, _, Ok _, 1) ] ->
      ()
  | l ->
      Alcotest.failf "unexpected blocking results: %s"
        (String.concat "; "
           (List.map
              (fun (a, s, r, n) ->
                Printf.sprintf "(%d,%d)->%s/%d traps" a s
                  (match r with
                  | Ok _ -> "Ok"
                  | Error e -> Error.to_string e)
                  n)
              l))

let test_ret_is_success () =
  Alcotest.(check bool) "success" true (Syscall.ret_is_success Syscall.Success);
  Alcotest.(check bool) "failure" false
    (Syscall.ret_is_success (Syscall.Failure Error.BUSY))

let suite =
  [
    call_roundtrip;
    verdict_matches_decoder;
    ret_roundtrip;
    Alcotest.test_case "error codes" `Quick test_error_codes;
    Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
    Alcotest.test_case "ret_is_success" `Quick test_ret_is_success;
    Alcotest.test_case "blocking fields out of range" `Quick
      test_blocking_range_rejected;
  ]
