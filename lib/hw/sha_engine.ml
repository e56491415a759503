type mode =
  | Idle (* a plain digest, its context built when first fed *)
  | Sha of Tock_crypto.Sha256.t
  | Hmac of Tock_crypto.Hmac.t

type completion = Data_done | Digest_done of bytes

type t = {
  op : completion Completion.t;
  cycles_per_block : int;
  mutable mode : mode;
  mutable key : bytes;
  mutable prepared : Tock_crypto.Hmac.key option;
      (* [key]'s midstates: a copy of the last HMAC key and its prepared
         form, reused while the next op's key has the same bytes *)
}

let create sim irq ~irq_line ~cycles_per_block =
  {
    op = Completion.create sim irq ~line:irq_line ~name:"sha";
    cycles_per_block;
    mode = Idle;
    key = Bytes.empty;
    prepared = None;
  }

let set_mode t mode =
  if Completion.busy t.op then Error (Completion.Busy "sha engine busy")
  else begin
    t.mode <- mode ();
    Ok ()
  end

let set_mode_sha256 t = set_mode t (fun () -> Sha (Tock_crypto.Sha256.init ()))

(* Compares bytes, never the buffer: a caller may rewrite one key buffer
   between ops. *)
let prepared t key =
  match t.prepared with
  | Some p when Bytes.equal key t.key -> p
  | _ ->
      let p = Tock_crypto.Hmac.prepare key in
      t.key <- Bytes.copy key;
      t.prepared <- Some p;
      p

let set_mode_hmac t ~key =
  set_mode t (fun () -> Hmac (Tock_crypto.Hmac.start (prepared t key)))

let add_data t b ~off ~len =
  if Completion.busy t.op then Error (Completion.Busy "sha engine busy")
  else if off < 0 || len < 0 || off + len > Bytes.length b then
    Error (Completion.Invalid "bad range")
  else begin
    (match t.mode with
    | Sha h -> Tock_crypto.Sha256.feed h b ~off ~len
    | Hmac h -> Tock_crypto.Hmac.feed h b ~off ~len
    | Idle ->
        let h = Tock_crypto.Sha256.init () in
        Tock_crypto.Sha256.feed h b ~off ~len;
        t.mode <- Sha h);
    let blocks = (len + 63) / 64 in
    Completion.start t.op ~delay:(max 1 blocks * t.cycles_per_block) (fun () ->
        Data_done)
  end

let run t =
  if Completion.busy t.op then Error (Completion.Busy "sha engine busy")
  else begin
    let digest =
      match t.mode with
      | Sha h -> Tock_crypto.Sha256.finalize h
      | Hmac h -> Tock_crypto.Hmac.finalize h
      | Idle -> Tock_crypto.Sha256.digest_bytes Bytes.empty
    in
    t.mode <- Idle;
    Completion.start t.op ~delay:t.cycles_per_block (fun () ->
        Digest_done digest)
  end

let set_client t fn = Completion.set_client t.op fn
