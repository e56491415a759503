module Syscall = Tock.Syscall

type callback = int -> int -> int -> unit

(* Decode return registers, building only the [ret]. *)
let decode regs =
  match Syscall.decode_ret_exn regs with
  | r -> r
  | exception Invalid_argument m ->
      raise (Emu.App_panic_exn ("undecodable syscall return: " ^ m))

(* Perform a call that must come back as plain return registers (no upcall
   delivery possible at this suspension point). *)
let plain_call app cls r0 r1 r2 r3 =
  match Emu.trap app cls r0 r1 r2 r3 with
  | `Regs regs -> decode regs
  | `Upcall _ ->
      raise (Emu.App_panic_exn "unexpected upcall delivery at non-yield call")

let command app ~driver ~cmd ~arg1 ~arg2 =
  plain_call app Syscall.class_command driver cmd arg1 arg2

(* Swap [fnptr] into the slot. On success the kernel hands back the
   pointer it replaced, whose closure nothing can reach any more: drop
   it, so the upcall table holds only live subscriptions. *)
let swap_upcall app ~driver ~sub fnptr =
  match plain_call app Syscall.class_subscribe driver sub fnptr 0 with
  | Syscall.Success_u32_u32 (old, _) ->
      Emu.remove_upcall_fn app old;
      Ok ()
  | Syscall.Failure_u32_u32 (e, _, _) | Syscall.Failure e -> Error e
  | _ -> Error Tock.Error.FAIL

let subscribe app ~driver ~sub cb =
  let fnptr = Emu.register_upcall_fn app cb in
  match swap_upcall app ~driver ~sub fnptr with
  | Ok () -> Ok ()
  | Error _ as e ->
      Emu.remove_upcall_fn app fnptr;
      e

let unsubscribe app ~driver ~sub = ignore (swap_upcall app ~driver ~sub 0)

let allow_gen app cls ~driver ~num ~addr ~len =
  match plain_call app cls driver num addr len with
  | Syscall.Success_u32_u32 (a, l) -> Ok (a, l)
  | Syscall.Failure_u32_u32 (e, _, _) | Syscall.Failure e -> Error e
  | _ -> Error Tock.Error.FAIL

let allow_rw app ~driver ~num ~addr ~len =
  allow_gen app Syscall.class_allow_rw ~driver ~num ~addr ~len

let allow_ro app ~driver ~num ~addr ~len =
  allow_gen app Syscall.class_allow_ro ~driver ~num ~addr ~len

let unallow_rw app ~driver ~num =
  ignore (plain_call app Syscall.class_allow_rw driver num 0 0)

let unallow_ro app ~driver ~num =
  ignore (plain_call app Syscall.class_allow_ro driver num 0 0)

(* [u] is the kernel's upcall frame: read it before the closure runs,
   since the closure's own syscalls may reuse it. *)
let dispatch_upcall app u =
  Emu.run_upcall app u.(0) u.(2) u.(3) u.(4)

let yield_wait app =
  match Emu.trap app Syscall.class_yield 1 0 0 0 with
  | `Upcall u -> dispatch_upcall app u
  | `Regs _ -> raise (Emu.App_panic_exn "yield-wait returned without upcall")

let yield_no_wait app =
  match Emu.trap app Syscall.class_yield 0 0 0 0 with
  | `Upcall u ->
      dispatch_upcall app u;
      true
  | `Regs _ -> false

let yield_wait_for app ~driver ~sub =
  match Emu.trap app Syscall.class_yield 2 driver sub 0 with
  | `Regs regs -> (
      match decode regs with
      | Syscall.Success_u32_u32_u32 (a, b, c) -> (a, b, c)
      | r ->
          raise
            (Emu.App_panic_exn
               (Format.asprintf "yield-wait-for: unexpected %a" Syscall.pp_ret r)))
  | `Upcall _ ->
      raise (Emu.App_panic_exn "yield-wait-for must not invoke callbacks")

let command_blocking app ~driver ~cmd ~arg1 ~arg2 ~sub =
  match Syscall.pack_blocking ~arg2 ~subscribe_num:sub with
  | exception Invalid_argument _ -> Error Tock.Error.INVAL
  | packed -> (
      match
        plain_call app Syscall.class_command_blocking driver cmd arg1 packed
      with
      | Syscall.Success_u32_u32_u32 (a, b, c) -> Ok (a, b, c)
      | Syscall.Failure e
      | Syscall.Failure_u32 (e, _)
      | Syscall.Failure_u32_u32 (e, _, _) ->
          Error e
      | _ -> Error Tock.Error.FAIL)

let exit app code =
  ignore (plain_call app Syscall.class_exit 0 code 0 0);
  raise (Emu.App_panic_exn "exit returned")

let restart app =
  ignore (plain_call app Syscall.class_exit 1 0 0 0);
  raise (Emu.App_panic_exn "restart returned")

let memop app ~op ~arg = plain_call app Syscall.class_memop op arg 0 0

let memop_u32 app ~op =
  match memop app ~op ~arg:0 with
  | Syscall.Success_u32 v -> v
  | _ -> raise (Emu.App_panic_exn "memop failed")

let ram_start app = memop_u32 app ~op:Syscall.memop_ram_start

let ram_end app = memop_u32 app ~op:Syscall.memop_ram_end

let driver_exists app ~driver =
  Syscall.ret_is_success (command app ~driver ~cmd:0 ~arg1:0 ~arg2:0)
