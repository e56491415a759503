(* ---- GF(2^8) arithmetic with the AES modulus x^8+x^4+x^3+x+1 ---- *)

let gf_mul a b =
  let a = ref a and b = ref b and r = ref 0 in
  for _ = 0 to 7 do
    if !b land 1 = 1 then r := !r lxor !a;
    let hi = !a land 0x80 in
    a := (!a lsl 1) land 0xff;
    if hi <> 0 then a := !a lxor 0x1b;
    b := !b lsr 1
  done;
  !r

(* S-box derived from first principles: multiplicative inverse followed by
   the affine transform b ^ rotl1..4(b) ^ 0x63. *)
let sbox, inv_sbox =
  let inverse = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gf_mul a b = 1 then inverse.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  let s = Array.make 256 0 and si = Array.make 256 0 in
  for x = 0 to 255 do
    let b = inverse.(x) in
    let v =
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63
    in
    s.(x) <- v;
    si.(v) <- x
  done;
  (s, si)

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* ---- T-tables ----

   The fast data path works on four 32-bit column words (big-endian byte
   order, matching FIPS 197's state layout) and folds SubBytes +
   ShiftRows + MixColumns into four 256-entry table lookups per word.
   The tables are derived at module init from the same first-principles
   sbox and gf_mul as the byte-wise reference kernel, so there is still
   no hand-typed constant to get wrong; the reference kernel is retained
   below (module {!Reference}) as the oracle the fast path is tested and
   benchmarked against. *)

let mask32 = 0xFFFFFFFF

let ror8 w = ((w lsr 8) lor (w lsl 24)) land mask32

let te0, te1, te2, te3, td0, td1, td2, td3 =
  let te0 = Array.make 256 0 and te1 = Array.make 256 0 in
  let te2 = Array.make 256 0 and te3 = Array.make 256 0 in
  let td0 = Array.make 256 0 and td1 = Array.make 256 0 in
  let td2 = Array.make 256 0 and td3 = Array.make 256 0 in
  for x = 0 to 255 do
    let s = sbox.(x) in
    (* MixColumns contribution of a row-0 byte: column (2s, s, s, 3s). *)
    let w =
      (gf_mul s 2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor gf_mul s 3
    in
    te0.(x) <- w;
    te1.(x) <- ror8 w;
    te2.(x) <- ror8 (ror8 w);
    te3.(x) <- ror8 (ror8 (ror8 w));
    let si = inv_sbox.(x) in
    (* InvMixColumns contribution: column (14s, 9s, 13s, 11s). *)
    let wi =
      (gf_mul si 14 lsl 24) lor (gf_mul si 9 lsl 16) lor (gf_mul si 13 lsl 8)
      lor gf_mul si 11
    in
    td0.(x) <- wi;
    td1.(x) <- ror8 wi;
    td2.(x) <- ror8 (ror8 wi);
    td3.(x) <- ror8 (ror8 (ror8 wi))
  done;
  (te0, te1, te2, te3, td0, td1, td2, td3)

(* InvMixColumns of one column word — used to derive the equivalent
   inverse cipher's round keys (FIPS 197 §5.3.5). *)
let inv_mix_word w =
  let a0 = (w lsr 24) land 0xff
  and a1 = (w lsr 16) land 0xff
  and a2 = (w lsr 8) land 0xff
  and a3 = w land 0xff in
  ((gf_mul a0 14 lxor gf_mul a1 11 lxor gf_mul a2 13 lxor gf_mul a3 9) lsl 24)
  lor ((gf_mul a0 9 lxor gf_mul a1 14 lxor gf_mul a2 11 lxor gf_mul a3 13)
      lsl 16)
  lor ((gf_mul a0 13 lxor gf_mul a1 9 lxor gf_mul a2 14 lxor gf_mul a3 11)
      lsl 8)
  lor (gf_mul a0 11 lxor gf_mul a1 13 lxor gf_mul a2 9 lxor gf_mul a3 14)

type key = {
  rounds : int array array; (* 11 round keys of 16 bytes (reference path) *)
  enc_w : int array; (* the same 44 round-key words, for the T-table path *)
  dec_w : int array; (* equivalent-inverse-cipher round-key words *)
}

let expand_key kb =
  if Bytes.length kb <> 16 then invalid_arg "Aes128.expand_key: need 16 bytes";
  (* Words as 4-byte int arrays; 44 words total. *)
  let w = Array.make_matrix 44 4 0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      w.(i).(j) <- Char.code (Bytes.get kb ((i * 4) + j))
    done
  done;
  for i = 4 to 43 do
    let tmp = Array.copy w.(i - 1) in
    if i mod 4 = 0 then begin
      (* RotWord *)
      let t0 = tmp.(0) in
      tmp.(0) <- tmp.(1);
      tmp.(1) <- tmp.(2);
      tmp.(2) <- tmp.(3);
      tmp.(3) <- t0;
      (* SubWord *)
      for j = 0 to 3 do
        tmp.(j) <- sbox.(tmp.(j))
      done;
      tmp.(0) <- tmp.(0) lxor rcon.((i / 4) - 1)
    end;
    for j = 0 to 3 do
      w.(i).(j) <- w.(i - 4).(j) lxor tmp.(j)
    done
  done;
  let rounds =
    Array.init 11 (fun r ->
        Array.init 16 (fun b -> w.((r * 4) + (b / 4)).(b mod 4)))
  in
  let word r c =
    (rounds.(r).(4 * c) lsl 24)
    lor (rounds.(r).((4 * c) + 1) lsl 16)
    lor (rounds.(r).((4 * c) + 2) lsl 8)
    lor rounds.(r).((4 * c) + 3)
  in
  let enc_w = Array.init 44 (fun i -> word (i / 4) (i mod 4)) in
  let dec_w =
    Array.init 44 (fun i ->
        let r = i / 4 and c = i mod 4 in
        let src = word (10 - r) c in
        if r = 0 || r = 10 then src else inv_mix_word src)
  in
  { rounds; enc_w; dec_w }

let add_round_key state rk =
  for i = 0 to 15 do
    state.(i) <- state.(i) lxor rk.(i)
  done

let sub_bytes state tbl =
  for i = 0 to 15 do
    state.(i) <- tbl.(state.(i))
  done

(* State layout: state.(4*col + row) — i.e. column-major blocks as in
   FIPS 197's byte ordering of the input. *)
let shift_rows state =
  let g c r = state.((c * 4) + r) in
  let out = Array.make 16 0 in
  for c = 0 to 3 do
    for r = 0 to 3 do
      out.((c * 4) + r) <- g ((c + r) mod 4) r
    done
  done;
  Array.blit out 0 state 0 16

let inv_shift_rows state =
  let g c r = state.((c * 4) + r) in
  let out = Array.make 16 0 in
  for c = 0 to 3 do
    for r = 0 to 3 do
      out.((c * 4) + r) <- g ((c - r + 4) mod 4) r
    done
  done;
  Array.blit out 0 state 0 16

let mix_columns state =
  for c = 0 to 3 do
    let b = c * 4 in
    let a0 = state.(b) and a1 = state.(b + 1) in
    let a2 = state.(b + 2) and a3 = state.(b + 3) in
    state.(b) <- gf_mul a0 2 lxor gf_mul a1 3 lxor a2 lxor a3;
    state.(b + 1) <- a0 lxor gf_mul a1 2 lxor gf_mul a2 3 lxor a3;
    state.(b + 2) <- a0 lxor a1 lxor gf_mul a2 2 lxor gf_mul a3 3;
    state.(b + 3) <- gf_mul a0 3 lxor a1 lxor a2 lxor gf_mul a3 2
  done

let inv_mix_columns state =
  for c = 0 to 3 do
    let b = c * 4 in
    let a0 = state.(b) and a1 = state.(b + 1) in
    let a2 = state.(b + 2) and a3 = state.(b + 3) in
    state.(b) <-
      gf_mul a0 14 lxor gf_mul a1 11 lxor gf_mul a2 13 lxor gf_mul a3 9;
    state.(b + 1) <-
      gf_mul a0 9 lxor gf_mul a1 14 lxor gf_mul a2 11 lxor gf_mul a3 13;
    state.(b + 2) <-
      gf_mul a0 13 lxor gf_mul a1 9 lxor gf_mul a2 14 lxor gf_mul a3 11;
    state.(b + 3) <-
      gf_mul a0 11 lxor gf_mul a1 13 lxor gf_mul a2 9 lxor gf_mul a3 14
  done

let load_state src off =
  Array.init 16 (fun i -> Char.code (Bytes.get src (off + i)))

let store_state state =
  Bytes.init 16 (fun i -> Char.chr state.(i))

(* ---- byte-wise reference kernels (the oracle) ---- *)

let encrypt_block_ref key src ~off =
  if off < 0 || off + 16 > Bytes.length src then
    invalid_arg "Aes128.encrypt_block";
  let state = load_state src off in
  add_round_key state key.rounds.(0);
  for r = 1 to 9 do
    sub_bytes state sbox;
    shift_rows state;
    mix_columns state;
    add_round_key state key.rounds.(r)
  done;
  sub_bytes state sbox;
  shift_rows state;
  add_round_key state key.rounds.(10);
  store_state state

let decrypt_block_ref key src ~off =
  if off < 0 || off + 16 > Bytes.length src then
    invalid_arg "Aes128.decrypt_block";
  let state = load_state src off in
  add_round_key state key.rounds.(10);
  for r = 9 downto 1 do
    inv_shift_rows state;
    sub_bytes state inv_sbox;
    add_round_key state key.rounds.(r);
    inv_mix_columns state
  done;
  inv_shift_rows state;
  sub_bytes state inv_sbox;
  add_round_key state key.rounds.(0);
  store_state state

module Reference = struct
  let encrypt_block = encrypt_block_ref

  let decrypt_block = decrypt_block_ref
end

(* ---- T-table fast path ---- *)

(* Load the column word at [off + 4c] big-endian. Bounds are validated
   once per block by the callers, so the byte reads are unchecked. *)
let ld src off i =
  (Char.code (Bytes.unsafe_get src (off + i)) lsl 24)
  lor (Char.code (Bytes.unsafe_get src (off + i + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get src (off + i + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get src (off + i + 3))

let st out i v =
  Bytes.unsafe_set out i (Char.unsafe_chr (v lsr 24));
  Bytes.unsafe_set out (i + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set out (i + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set out (i + 3) (Char.unsafe_chr (v land 0xff))

let encrypt_block key src ~off =
  if off < 0 || off + 16 > Bytes.length src then
    invalid_arg "Aes128.encrypt_block";
  let w = key.enc_w in
  let s0 = ref (ld src off 0 lxor Array.unsafe_get w 0)
  and s1 = ref (ld src off 4 lxor Array.unsafe_get w 1)
  and s2 = ref (ld src off 8 lxor Array.unsafe_get w 2)
  and s3 = ref (ld src off 12 lxor Array.unsafe_get w 3) in
  for r = 1 to 9 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let b = r * 4 in
    s0 :=
      Array.unsafe_get te0 (a0 lsr 24)
      lxor Array.unsafe_get te1 ((a1 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((a2 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (a3 land 0xff)
      lxor Array.unsafe_get w b;
    s1 :=
      Array.unsafe_get te0 (a1 lsr 24)
      lxor Array.unsafe_get te1 ((a2 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((a3 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (a0 land 0xff)
      lxor Array.unsafe_get w (b + 1);
    s2 :=
      Array.unsafe_get te0 (a2 lsr 24)
      lxor Array.unsafe_get te1 ((a3 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((a0 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (a1 land 0xff)
      lxor Array.unsafe_get w (b + 2);
    s3 :=
      Array.unsafe_get te0 (a3 lsr 24)
      lxor Array.unsafe_get te1 ((a0 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((a1 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (a2 land 0xff)
      lxor Array.unsafe_get w (b + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  let fin x0 x1 x2 x3 rk =
    (Array.unsafe_get sbox (x0 lsr 24) lsl 24)
    lor (Array.unsafe_get sbox ((x1 lsr 16) land 0xff) lsl 16)
    lor (Array.unsafe_get sbox ((x2 lsr 8) land 0xff) lsl 8)
    lor Array.unsafe_get sbox (x3 land 0xff)
    lxor rk
  in
  let out = Bytes.create 16 in
  st out 0 (fin a0 a1 a2 a3 (Array.unsafe_get w 40));
  st out 4 (fin a1 a2 a3 a0 (Array.unsafe_get w 41));
  st out 8 (fin a2 a3 a0 a1 (Array.unsafe_get w 42));
  st out 12 (fin a3 a0 a1 a2 (Array.unsafe_get w 43));
  out

let decrypt_block key src ~off =
  if off < 0 || off + 16 > Bytes.length src then
    invalid_arg "Aes128.decrypt_block";
  let w = key.dec_w in
  let s0 = ref (ld src off 0 lxor Array.unsafe_get w 0)
  and s1 = ref (ld src off 4 lxor Array.unsafe_get w 1)
  and s2 = ref (ld src off 8 lxor Array.unsafe_get w 2)
  and s3 = ref (ld src off 12 lxor Array.unsafe_get w 3) in
  for r = 1 to 9 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let b = r * 4 in
    s0 :=
      Array.unsafe_get td0 (a0 lsr 24)
      lxor Array.unsafe_get td1 ((a3 lsr 16) land 0xff)
      lxor Array.unsafe_get td2 ((a2 lsr 8) land 0xff)
      lxor Array.unsafe_get td3 (a1 land 0xff)
      lxor Array.unsafe_get w b;
    s1 :=
      Array.unsafe_get td0 (a1 lsr 24)
      lxor Array.unsafe_get td1 ((a0 lsr 16) land 0xff)
      lxor Array.unsafe_get td2 ((a3 lsr 8) land 0xff)
      lxor Array.unsafe_get td3 (a2 land 0xff)
      lxor Array.unsafe_get w (b + 1);
    s2 :=
      Array.unsafe_get td0 (a2 lsr 24)
      lxor Array.unsafe_get td1 ((a1 lsr 16) land 0xff)
      lxor Array.unsafe_get td2 ((a0 lsr 8) land 0xff)
      lxor Array.unsafe_get td3 (a3 land 0xff)
      lxor Array.unsafe_get w (b + 2);
    s3 :=
      Array.unsafe_get td0 (a3 lsr 24)
      lxor Array.unsafe_get td1 ((a2 lsr 16) land 0xff)
      lxor Array.unsafe_get td2 ((a1 lsr 8) land 0xff)
      lxor Array.unsafe_get td3 (a0 land 0xff)
      lxor Array.unsafe_get w (b + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  let fin x0 x1 x2 x3 rk =
    (Array.unsafe_get inv_sbox (x0 lsr 24) lsl 24)
    lor (Array.unsafe_get inv_sbox ((x1 lsr 16) land 0xff) lsl 16)
    lor (Array.unsafe_get inv_sbox ((x2 lsr 8) land 0xff) lsl 8)
    lor Array.unsafe_get inv_sbox (x3 land 0xff)
    lxor rk
  in
  let out = Bytes.create 16 in
  st out 0 (fin a0 a3 a2 a1 (Array.unsafe_get w 40));
  st out 4 (fin a1 a0 a3 a2 (Array.unsafe_get w 41));
  st out 8 (fin a2 a1 a0 a3 (Array.unsafe_get w 42));
  st out 12 (fin a3 a2 a1 a0 (Array.unsafe_get w 43));
  out

let ecb_map f key src =
  let len = Bytes.length src in
  if len mod 16 <> 0 then invalid_arg "Aes128: ECB needs multiple of 16";
  let out = Bytes.create len in
  let off = ref 0 in
  while !off < len do
    Bytes.blit (f key src ~off:!off) 0 out !off 16;
    off := !off + 16
  done;
  out

let ecb_encrypt key src = ecb_map encrypt_block key src

let ecb_decrypt key src = ecb_map decrypt_block key src

let ctr_transform key ~nonce src =
  if Bytes.length nonce <> 16 then invalid_arg "Aes128.ctr: 16-byte nonce";
  let len = Bytes.length src in
  let out = Bytes.create len in
  let counter = Bytes.copy nonce in
  let bump () =
    (* Increment the last 4 bytes big-endian. *)
    let rec go i =
      if i >= 12 then begin
        let v = (Char.code (Bytes.get counter i) + 1) land 0xff in
        Bytes.set counter i (Char.chr v);
        if v = 0 then go (i - 1)
      end
    in
    go 15
  in
  let off = ref 0 in
  while !off < len do
    let ks = encrypt_block key counter ~off:0 in
    let n = min 16 (len - !off) in
    for i = 0 to n - 1 do
      Bytes.set out (!off + i)
        (Char.chr
           (Char.code (Bytes.get src (!off + i))
           lxor Char.code (Bytes.get ks i)))
    done;
    bump ();
    off := !off + n
  done;
  out
