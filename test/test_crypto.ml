(* Crypto substrate: vectors from FIPS 180-4, RFC 4231, FIPS 197, plus
   property tests for streaming equivalence, mode roundtrips, modular
   arithmetic laws, and signature soundness. *)

open! Helpers
open Tock_crypto

let test_sha_vectors () =
  Alcotest.(check string)
    "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Sha256.digest_string ""));
  Alcotest.(check string)
    "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.digest_string "abc"));
  Alcotest.(check string)
    "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  (* One million 'a's — the classic long vector. *)
  Alcotest.(check string)
    "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.digest_bytes (Bytes.make 1_000_000 'a')))

let gen_bytes = QCheck2.Gen.(map Bytes.of_string (string_size (0 -- 600)))

let sha_streaming_prop =
  qcheck "sha256: chunked feeding == one-shot"
    QCheck2.Gen.(pair gen_bytes (int_range 1 64))
    (fun (data, chunk) ->
      let t = Sha256.init () in
      let len = Bytes.length data in
      let rec go off =
        if off < len then begin
          let n = min chunk (len - off) in
          Sha256.feed t data ~off ~len:n;
          go (off + n)
        end
      in
      go 0;
      Bytes.equal (Sha256.finalize t) (Sha256.digest_bytes data))

(* The byte-wise reference kernels are retained as oracles for the
   table-driven/unrolled fast paths. Pin the oracle itself to the FIPS
   vectors, then property-test fast == reference so a table or schedule
   bug cannot hide behind "both changed together". *)

let test_sha_reference_vectors () =
  Alcotest.(check string)
    "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Sha256.Reference.digest_string ""));
  Alcotest.(check string)
    "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.Reference.digest_string "abc"));
  Alcotest.(check string)
    "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex
       (Sha256.Reference.digest_string
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let sha_reference_equiv_prop =
  qcheck "sha256: fast digest == Reference digest" gen_bytes (fun data ->
      Bytes.equal (Sha256.digest_bytes data) (Sha256.Reference.digest_bytes data))

let sha_compress_equiv_prop =
  (* Drive the gated primitive directly: chain several compressions from
     the same starting state through both kernels, then observe the
     chaining state via finalize. Exercises non-zero offsets too. *)
  qcheck "sha256: unrolled compress == Reference.compress per block"
    QCheck2.Gen.(string_size (return 256))
    (fun s ->
      let blk = Bytes.of_string s in
      let t1 = Sha256.init () and t2 = Sha256.init () in
      for i = 0 to 3 do
        Sha256.compress t1 blk ~off:(i * 64);
        Sha256.Reference.compress t2 blk ~off:(i * 64)
      done;
      Bytes.equal (Sha256.finalize t1) (Sha256.finalize t2))

let test_hmac_vectors () =
  (* RFC 4231 test case 1 *)
  let key = Bytes.make 20 '\x0b' in
  Alcotest.(check string)
    "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.mac_string ~key "Hi There"));
  (* RFC 4231 test case 2 *)
  Alcotest.(check string)
    "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.mac_string ~key:(Bytes.of_string "Jefe") "what do ya want for nothing?"));
  (* RFC 4231 test case 3: 0xaa x20 key, 0xdd x50 data *)
  Alcotest.(check string)
    "case 3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.mac_bytes ~key:(Bytes.make 20 '\xaa') (Bytes.make 50 '\xdd')));
  (* long key (> block size) gets hashed *)
  let long_key = Bytes.make 131 '\xaa' in
  Alcotest.(check string)
    "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex (Hmac.mac_string ~key:long_key "Test Using Larger Than Block-Size Key - Hash Key First"))

(* HMAC written out over the byte-wise oracle: K0 = the key (hashed
   first if longer than a block), zero-padded to 64 bytes;
   H((K0 ^ opad) || H((K0 ^ ipad) || m)). *)
let reference_hmac key msg =
  let key = if Bytes.length key > 64 then Sha256.Reference.digest_bytes key else key in
  let k0 = Bytes.make 64 '\x00' in
  Bytes.blit key 0 k0 0 (Bytes.length key);
  let pad x = Bytes.map (fun c -> Char.chr (Char.code c lxor x)) k0 in
  Sha256.Reference.digest_bytes
    (Bytes.cat (pad 0x5c) (Sha256.Reference.digest_bytes (Bytes.cat (pad 0x36) msg)))

(* A MAC under a prepared key, its message fed in the given chunk
   sizes (cycled). *)
let mac_prepared k msg chunks =
  let t = Hmac.start k in
  let len = Bytes.length msg in
  let rec go off i =
    if off < len then begin
      let n = min (List.nth chunks (i mod List.length chunks)) (len - off) in
      Hmac.feed t msg ~off ~len:n;
      go (off + n) (i + 1)
    end
  in
  go 0 0;
  Hmac.finalize t

let hmac_prepared_prop =
  qcheck ~count:200 "hmac: prepared key == mac_bytes == reference oracle"
    QCheck2.Gen.(
      triple
        (map Bytes.of_string (string_size (0 -- 200)))
        (map Bytes.of_string (string_size (0 -- 300)))
        (list_size (1 -- 4) (int_range 1 80)))
    (fun (key, msg, chunks) ->
      let k = Hmac.prepare key in
      let expect = reference_hmac key msg in
      (* The prepared key is a value: later writes to the key bytes do
         not reach it, and it serves any number of MACs. *)
      Bytes.fill key 0 (Bytes.length key) '\xff';
      Bytes.equal (mac_prepared k msg chunks) expect
      && Bytes.equal (mac_prepared k msg [ 64 ]) expect
      && Bytes.equal (Hmac.mac_bytes ~key:(Bytes.copy key) msg)
           (reference_hmac key msg))

let test_hmac_verify () =
  let key = Bytes.of_string "secret" and msg = Bytes.of_string "message" in
  let tag = Hmac.mac_bytes ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key ~msg ~tag);
  let bad = Bytes.copy tag in
  Bytes.set bad 5 (Char.chr (Char.code (Bytes.get bad 5) lxor 1));
  Alcotest.(check bool) "rejects" false (Hmac.verify ~key ~msg ~tag:bad);
  Alcotest.(check bool) "rejects short" false
    (Hmac.verify ~key ~msg ~tag:(Bytes.sub tag 0 16))

let test_aes_vector () =
  (* FIPS 197 appendix C.1 *)
  let key = Bytes.init 16 Char.chr in
  let pt = Bytes.init 16 (fun i -> Char.chr (i * 0x11)) in
  let k = Aes128.expand_key key in
  let ct = Aes128.encrypt_block k pt ~off:0 in
  Alcotest.(check string)
    "encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex ct);
  Alcotest.(check string) "decrypt" (hex pt) (hex (Aes128.decrypt_block k ct ~off:0))

let test_aes_reference_vector () =
  (* FIPS 197 appendix C.1 through the byte-wise oracle. *)
  let key = Bytes.init 16 Char.chr in
  let pt = Bytes.init 16 (fun i -> Char.chr (i * 0x11)) in
  let k = Aes128.expand_key key in
  let ct = Aes128.Reference.encrypt_block k pt ~off:0 in
  Alcotest.(check string)
    "encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex ct);
  Alcotest.(check string) "decrypt" (hex pt)
    (hex (Aes128.Reference.decrypt_block k ct ~off:0))

let aes_reference_equiv_prop =
  qcheck "aes: T-table kernels == byte-wise reference"
    QCheck2.Gen.(pair (string_size (return 16)) (string_size (return 48)))
    (fun (keys, datas) ->
      let k = Aes128.expand_key (Bytes.of_string keys) in
      let data = Bytes.of_string datas in
      List.for_all
        (fun off ->
          let fast = Aes128.encrypt_block k data ~off in
          let slow = Aes128.Reference.encrypt_block k data ~off in
          Bytes.equal fast slow
          && Bytes.equal
               (Aes128.decrypt_block k fast ~off:0)
               (Aes128.Reference.decrypt_block k fast ~off:0))
        [ 0; 16; 32 ])

let aes_roundtrip_prop =
  qcheck "aes: ECB decrypt . encrypt == id"
    QCheck2.Gen.(pair (string_size (return 16)) (int_range 1 8))
    (fun (keys, blocks) ->
      let key = Aes128.expand_key (Bytes.of_string keys) in
      let data = Bytes.init (blocks * 16) (fun i -> Char.chr ((i * 7 + 3) land 0xff)) in
      Bytes.equal (Aes128.ecb_decrypt key (Aes128.ecb_encrypt key data)) data)

let aes_ctr_prop =
  qcheck "aes: CTR is an involution"
    QCheck2.Gen.(pair (string_size (return 16)) gen_bytes)
    (fun (keys, data) ->
      let key = Aes128.expand_key (Bytes.of_string keys) in
      let nonce = Bytes.make 16 '\x42' in
      Bytes.equal (Aes128.ctr_transform key ~nonce (Aes128.ctr_transform key ~nonce data)) data)

let test_ctr_counter_overflow () =
  (* Counter starting at 0xffffffff must carry, not repeat keystream. *)
  let key = Aes128.expand_key (Bytes.make 16 'k') in
  let nonce = Bytes.cat (Bytes.make 12 '\x00') (Bytes.of_string "\xff\xff\xff\xff") in
  let zeros = Bytes.make 48 '\x00' in
  let ks = Aes128.ctr_transform key ~nonce zeros in
  let b1 = Bytes.sub ks 0 16 and b2 = Bytes.sub ks 16 16 and b3 = Bytes.sub ks 32 16 in
  Alcotest.(check bool) "blocks differ" true
    (not (Bytes.equal b1 b2) && not (Bytes.equal b2 b3) && not (Bytes.equal b1 b3))

let gen_mod_elt = QCheck2.Gen.(map (fun x -> abs x mod Modmath.p61) int)

let modmath_props =
  [
    qcheck "modmath: mul commutative" QCheck2.Gen.(pair gen_mod_elt gen_mod_elt)
      (fun (a, b) -> Modmath.mul ~m:Modmath.p61 a b = Modmath.mul ~m:Modmath.p61 b a);
    qcheck "modmath: mul associative"
      QCheck2.Gen.(triple gen_mod_elt gen_mod_elt gen_mod_elt)
      (fun (a, b, c) ->
        let m = Modmath.p61 in
        Modmath.mul ~m (Modmath.mul ~m a b) c = Modmath.mul ~m a (Modmath.mul ~m b c));
    qcheck "modmath: inverse" gen_mod_elt (fun a ->
        let m = Modmath.p61 in
        let a = max a 1 in
        Modmath.mul ~m a (Modmath.inv ~m a) = 1);
    qcheck "modmath: pow law a^(x+y) = a^x a^y"
      QCheck2.Gen.(triple gen_mod_elt (int_range 0 10000) (int_range 0 10000))
      (fun (a, x, y) ->
        let m = Modmath.p61 in
        let a = max a 2 in
        Modmath.mul ~m (Modmath.pow ~m a x) (Modmath.pow ~m a y)
        = Modmath.pow ~m a (x + y));
  ]

let test_schnorr () =
  let rng = Prng.create ~seed:99L in
  let sk, pk = Schnorr.keypair rng in
  let msg = Bytes.of_string "firmware image v1.2" in
  let s = Schnorr.sign sk rng msg in
  Alcotest.(check bool) "verifies" true (Schnorr.verify pk msg s);
  Alcotest.(check bool) "wrong msg" false
    (Schnorr.verify pk (Bytes.of_string "firmware image v1.3") s);
  let _, pk2 = Schnorr.keypair rng in
  Alcotest.(check bool) "wrong key" false (Schnorr.verify pk2 msg s);
  (* serialization roundtrip *)
  let s' = Schnorr.signature_of_bytes (Schnorr.signature_to_bytes s) in
  Alcotest.(check bool) "sig roundtrip" true (Some s = s');
  let pk' = Schnorr.public_key_of_bytes (Schnorr.public_key_to_bytes pk) in
  Alcotest.(check bool) "pk roundtrip" true (Some pk = pk')

let schnorr_prop =
  qcheck ~count:30 "schnorr: sign/verify for random messages"
    QCheck2.Gen.(pair int gen_bytes)
    (fun (seed, msg) ->
      let rng = Prng.create ~seed:(Int64.of_int seed) in
      let sk, pk = Schnorr.keypair rng in
      let s = Schnorr.sign sk rng msg in
      Schnorr.verify pk msg s)

let test_prng () =
  let a = Prng.create ~seed:5L and b = Prng.create ~seed:5L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "deterministic" (Prng.next_int64 a) (Prng.next_int64 b)
  done;
  let c = Prng.split a in
  Alcotest.(check bool) "split diverges" true
    (Prng.next_int64 c <> Prng.next_int64 a);
  for _ = 1 to 1000 do
    let v = Prng.int a ~bound:7 in
    Alcotest.(check bool) "bounded" true (v >= 0 && v < 7);
    let f = Prng.float a in
    Alcotest.(check bool) "unit float" true (f >= 0.0 && f < 1.0)
  done

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick test_sha_vectors;
    Alcotest.test_case "sha256 reference vectors" `Quick
      test_sha_reference_vectors;
    sha_streaming_prop;
    sha_reference_equiv_prop;
    sha_compress_equiv_prop;
    Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
    Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
    hmac_prepared_prop;
    Alcotest.test_case "aes fips vector" `Quick test_aes_vector;
    Alcotest.test_case "aes reference fips vector" `Quick
      test_aes_reference_vector;
    aes_reference_equiv_prop;
    aes_roundtrip_prop;
    aes_ctr_prop;
    Alcotest.test_case "ctr counter carry" `Quick test_ctr_counter_overflow;
    Alcotest.test_case "schnorr" `Quick test_schnorr;
    schnorr_prop;
    Alcotest.test_case "prng" `Quick test_prng;
  ]
  @ modmath_props
