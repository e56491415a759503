type aes_mode = Ctr | Ecb_encrypt | Ecb_decrypt

type t = {
  op : bytes Completion.t;
  cycles_per_block : int;
  mutable key : Tock_crypto.Aes128.key option;
  mutable iv : bytes;
}

let create sim irq ~irq_line ~cycles_per_block =
  {
    op = Completion.create sim irq ~line:irq_line ~name:"aes";
    cycles_per_block;
    key = None;
    iv = Bytes.make 16 '\x00';
  }

(* Load a 16-byte key or IV ([what]) while no operation is in flight. *)
let load t ~what b set =
  if Completion.busy t.op then Error (Completion.Busy "aes engine busy")
  else if Bytes.length b <> 16 then Error (Completion.Invalid (what ^ " must be 16 bytes"))
  else Ok (set b)

let set_key t kb = load t ~what:"key" kb (fun kb -> t.key <- Some (Tock_crypto.Aes128.expand_key kb))

let set_iv t iv = load t ~what:"iv" iv (fun iv -> t.iv <- Bytes.copy iv)

let set_client t fn = Completion.set_client t.op fn

let crypt t ~mode ~src ~off ~len =
  if Completion.busy t.op then Error (Completion.Busy "aes engine busy")
  else if off < 0 || len < 0 || off + len > Bytes.length src then
    Error (Completion.Invalid "bad range")
  else
    match t.key with
    | None -> Error (Completion.Invalid "no key configured")
    | Some key -> (
        match mode with
        | Ecb_encrypt | Ecb_decrypt when len mod 16 <> 0 ->
            Error (Completion.Invalid "ECB needs a multiple of 16 bytes")
        | _ ->
            let input = Bytes.sub src off len in
            let out =
              match mode with
              | Ctr -> Tock_crypto.Aes128.ctr_transform key ~nonce:t.iv input
              | Ecb_encrypt -> Tock_crypto.Aes128.ecb_encrypt key input
              | Ecb_decrypt -> Tock_crypto.Aes128.ecb_decrypt key input
            in
            let blocks = max 1 ((len + 15) / 16) in
            Completion.start t.op ~delay:(blocks * t.cycles_per_block)
              (fun () -> out))
