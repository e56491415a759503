let mac_length = 32

let block_size = 64

(* The contexts after absorbing K0 xor ipad and K0 xor opad: every MAC
   under the key starts from one and ends from the other, so each
   costs the compressions of its message and one more. *)
type key = { ipad : Sha256.t; opad : Sha256.t }

type t = { inner : Sha256.t; key : key }

let prepare key =
  let key =
    if Bytes.length key > block_size then Sha256.digest_bytes key else key
  in
  let n = Bytes.length key in
  let pad = Bytes.create block_size in
  let absorb x =
    for i = 0 to block_size - 1 do
      let k = if i < n then Char.code (Bytes.unsafe_get key i) else 0 in
      Bytes.unsafe_set pad i (Char.unsafe_chr (k lxor x))
    done;
    let h = Sha256.init () in
    Sha256.feed h pad ~off:0 ~len:block_size;
    h
  in
  let ipad = absorb 0x36 in
  { ipad; opad = absorb 0x5c }

let start key = { inner = Sha256.copy key.ipad; key }

let init ~key = start (prepare key)

let feed t b ~off ~len = Sha256.feed t.inner b ~off ~len

let finalize t =
  let inner_digest = Sha256.finalize t.inner in
  let outer = Sha256.copy t.key.opad in
  Sha256.feed outer inner_digest ~off:0 ~len:(Bytes.length inner_digest);
  Sha256.finalize outer

let mac_bytes ~key b =
  let t = init ~key in
  feed t b ~off:0 ~len:(Bytes.length b);
  finalize t

let mac_string ~key s = mac_bytes ~key (Bytes.of_string s)

let verify ~key ~msg ~tag =
  let expect = mac_bytes ~key msg in
  if Bytes.length tag <> mac_length then false
  else begin
    let diff = ref 0 in
    for i = 0 to mac_length - 1 do
      diff :=
        !diff lor (Char.code (Bytes.get expect i) lxor Char.code (Bytes.get tag i))
    done;
    !diff = 0
  end
