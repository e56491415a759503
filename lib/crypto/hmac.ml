let mac_length = 32

let block_size = 64

type t = { inner : Sha256.t; okey : bytes }

let normalize_key key =
  let key =
    if Bytes.length key > block_size then Sha256.digest_bytes key else key
  in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit key 0 padded 0 (Bytes.length key);
  padded

let init ~key =
  let k0 = normalize_key key in
  let ikey = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x36)) k0 in
  let okey = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5c)) k0 in
  let inner = Sha256.init () in
  Sha256.feed inner ikey ~off:0 ~len:block_size;
  { inner; okey }

let feed t b ~off ~len = Sha256.feed t.inner b ~off ~len

let finalize t =
  let inner_digest = Sha256.finalize t.inner in
  let outer = Sha256.init () in
  Sha256.feed outer t.okey ~off:0 ~len:block_size;
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
