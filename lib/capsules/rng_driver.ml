open Tock

type grant_state = { mutable wanted : int (* bytes outstanding, 0 = idle *) }

type t = {
  kernel : Kernel.t;
  entropy : Hil.entropy;
  grant : grant_state Grant.t;
  mutable queue : Process.id list;
  mutable serving : Process.id option;
}

let enter t pid f =
  match Kernel.find_process t.kernel pid with
  | Some p -> Grant.enter t.grant p f
  | None -> Result.Error Error.NODEVICE

let rec pump t =
  match (t.serving, t.queue) with
  | None, pid :: rest -> (
      t.queue <- rest;
      match enter t pid (fun g -> g.wanted) with
      | Ok wanted when wanted > 0 -> (
          let words = (wanted + 3) / 4 in
          match t.entropy.Hil.entropy_request ~count:words with
          | Ok () -> t.serving <- Some pid
          | Error _ ->
              ignore
                (Kernel.schedule_upcall t.kernel pid ~driver:Driver_num.rng
                   ~subscribe_num:0 ~args:(0, 0, 0));
              pump t)
      | _ -> pump t)
  | _ -> ()

let create kernel entropy ~grant_cap =
  let t =
    {
      kernel;
      entropy;
      grant =
        Grant.create ~cap:grant_cap ~name:"rng" ~size_bytes:8 ~init:(fun () ->
            { wanted = 0 });
      queue = [];
      serving = None;
    }
  in
  Kernel.register_grant kernel t.grant;
  entropy.Hil.entropy_set_client (fun words ->
      match t.serving with
      | Some pid ->
          t.serving <- None;
          let wanted =
            match enter t pid (fun g ->
                      let w = g.wanted in
                      g.wanted <- 0;
                      w)
            with
            | Ok w -> w
            | Error _ -> 0
          in
          let filled =
            Kernel.with_allow_rw t.kernel pid ~driver:Driver_num.rng
              ~allow_num:0 (fun buf ->
                let n = min wanted (Subslice.length buf) in
                for i = 0 to n - 1 do
                  let w = words.(i / 4) in
                  Subslice.set_u8 buf i ((w lsr (8 * (i mod 4))) land 0xff)
                done;
                n)
          in
          let n = match filled with Ok n -> n | Error _ -> 0 in
          ignore
            (Kernel.schedule_upcall t.kernel pid ~driver:Driver_num.rng
               ~subscribe_num:0 ~args:(n, 0, 0));
          pump t
      | None -> ());
  t

let command t proc ~command_num ~arg1 ~arg2:_ =
  let pid = Process.id proc in
  match command_num with
  | 0 -> Syscall.Success
  | 1 -> (
      if arg1 <= 0 then Syscall.Failure Error.INVAL
      else
        match
          Grant.enter t.grant proc (fun g ->
              if g.wanted > 0 then false
              else begin
                g.wanted <- arg1;
                true
              end)
        with
        | Ok true ->
            t.queue <- t.queue @ [ pid ];
            pump t;
            Syscall.Success
        | Ok false -> Syscall.Failure Error.BUSY
        | Error e -> Syscall.Failure e)
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver t =
  Driver.make ~driver_num:Driver_num.rng ~name:"rng"
    (fun proc ~command_num ~arg1 ~arg2 -> command t proc ~command_num ~arg1 ~arg2)
