(* SHA-256 over OCaml's native ints: all 32-bit words are kept masked to
   [mask32], which is safe because the native int is at least 63 bits. *)

let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type t = {
  h : int array;            (* 8 chaining words *)
  block : bytes;            (* 64-byte partial block *)
  mutable fill : int;       (* bytes currently buffered in [block] *)
  mutable total : int;      (* total message bytes absorbed *)
  mutable w : int array;
      (* The oracle's 64-entry message schedule, reused; empty until
         [compress_ref] first runs on this context, since the fast path
         never reads it. *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = [||];
  }

let copy t =
  { h = Array.copy t.h; block = Bytes.copy t.block; fill = t.fill;
    total = t.total; w = [||] }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* Byte-wise/textbook compression — retained as the oracle for the
   unrolled fast path below (see {!Reference}). *)
let compress_ref t block off =
  if Array.length t.w = 0 then t.w <- Array.make 64 0;
  let w = t.w in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    w.(i) <-
      (Char.code (Bytes.get block j) lsl 24)
      lor (Char.code (Bytes.get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.get block (j + 2)) lsl 8)
      lor Char.code (Bytes.get block (j + 3))
  done;
  for i = 16 to 63 do
    let s0 =
      rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3)
    in
    let s1 =
      rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10)
    in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
  done;
  let h = t.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

(* ---- fast compression ----

   Same function, restructured for the data plane into one straight-line
   SSA block: all 64 rounds fully unrolled with the round constants as
   immediates, and the message schedule fused in -- w_i (i >= 16) is
   computed right before the round that consumes it, so the 48-entry
   schedule array and its ~200 memory accesses per block disappear and
   the only loads left are the 64 message bytes and the 8 chaining
   words. The a/e recurrences per FIPS 180-4 §6.2.2:
   a_i = t1_i + S0(a_{i-1}) + maj(a_{i-1},a_{i-2},a_{i-3}),
   e_i = a_{i-4} + t1_i, with
   t1_i = e_{i-4} + S1(e_{i-1}) + ch(e_{i-1},e_{i-2},e_{i-3}) + k_i + w_i,
   rotate the state by renaming instead of shuffling eight variables.
   ch/maj use the xor-chain forms ch(e,f,g) = ((f^g) & e) ^ g and
   maj(a,b,c) = ((a^b) & (b^c)) ^ b, whose (f^g)/(b^c) terms are the
   previous round's (e^f)/(a^b) -- carried along as x_i/y_i so each
   costs one xor. The sigmas are spelled out inline (the classic
   ocamlopt inliner would leave them as calls) and use the
   duplicated-word rotation trick: with d = x lor (x lsl 32) the low 32
   bits of (d lsr n) are rot_n(x) for any n <= 31, because the high
   copy supplies the wrap-around bits -- so each rotation costs one
   shift instead of the two in (x lsr n) lor (x lsl (32-n)). Shift
   µops are the dominant per-round cost, and halving them is worth
   ~25% of the whole block on a 2-shift-port core. t1 and the sigmas
   stay unmasked: they only feed additions and the final per-variable
   masks, the native int has headroom for the sums, and no later
   right-shift sees their high garbage bits (the plain-shift terms
   [w lsr 3]/[w lsr 10] of the schedule sigmas read the clean word, not
   the duplicate). t1's summands are associated as
   S1 + ch + (h + k + w) so the state-independent half of the sum sits
   off the e -> S1 -> t1 -> e critical path. compress_ref is the
   oracle proving all of this equivalent to the textbook form. *)

(* Unsafe 32-bit primitives for the fast path's message-word loads: a
   big-endian word in one load + byte swap instead of four byte reads.
   cmmgen unboxes the whole [Int32] chain, so no boxing either --
   bounds are established once at compress entry. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let ld32 b i = Int32.to_int (swap32 (get32u b i)) land mask32

let compress_fast t block off =
  if off < 0 || off + 64 > Bytes.length block then
    invalid_arg "Sha256.compress";
  let w0 = ld32 block (off + 0) in
  let w1 = ld32 block (off + 4) in
  let w2 = ld32 block (off + 8) in
  let w3 = ld32 block (off + 12) in
  let w4 = ld32 block (off + 16) in
  let w5 = ld32 block (off + 20) in
  let w6 = ld32 block (off + 24) in
  let w7 = ld32 block (off + 28) in
  let w8 = ld32 block (off + 32) in
  let w9 = ld32 block (off + 36) in
  let w10 = ld32 block (off + 40) in
  let w11 = ld32 block (off + 44) in
  let w12 = ld32 block (off + 48) in
  let w13 = ld32 block (off + 52) in
  let w14 = ld32 block (off + 56) in
  let w15 = ld32 block (off + 60) in
  let h = t.h in
  let a0 = Array.unsafe_get h 0
  and b0 = Array.unsafe_get h 1
  and c0 = Array.unsafe_get h 2
  and d0 = Array.unsafe_get h 3
  and e0 = Array.unsafe_get h 4
  and f0 = Array.unsafe_get h 5
  and g0 = Array.unsafe_get h 6
  and h0 = Array.unsafe_get h 7 in
  let x0 = b0 lxor c0 and y0 = f0 lxor g0 in
  let x1 = a0 lxor b0
  and y1 = e0 lxor f0 in
  let t1 =
    (let de = e0 lor (e0 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y0 land e0) lxor g0)
    + (h0 + 0x428a2f98 + w0)
  in
  let a1 =
    (t1
    + (let da = a0 lor (a0 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x1 land x0) lxor b0))
    land mask32
  and e1 = (d0 + t1) land mask32 in
  let x2 = a1 lxor a0
  and y2 = e1 lxor e0 in
  let t1 =
    (let de = e1 lor (e1 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y1 land e1) lxor f0)
    + (g0 + 0x71374491 + w1)
  in
  let a2 =
    (t1
    + (let da = a1 lor (a1 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x2 land x1) lxor a0))
    land mask32
  and e2 = (c0 + t1) land mask32 in
  let x3 = a2 lxor a1
  and y3 = e2 lxor e1 in
  let t1 =
    (let de = e2 lor (e2 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y2 land e2) lxor e0)
    + (f0 + 0xb5c0fbcf + w2)
  in
  let a3 =
    (t1
    + (let da = a2 lor (a2 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x3 land x2) lxor a1))
    land mask32
  and e3 = (b0 + t1) land mask32 in
  let x4 = a3 lxor a2
  and y4 = e3 lxor e2 in
  let t1 =
    (let de = e3 lor (e3 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y3 land e3) lxor e1)
    + (e0 + 0xe9b5dba5 + w3)
  in
  let a4 =
    (t1
    + (let da = a3 lor (a3 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x4 land x3) lxor a2))
    land mask32
  and e4 = (a0 + t1) land mask32 in
  let x5 = a4 lxor a3
  and y5 = e4 lxor e3 in
  let t1 =
    (let de = e4 lor (e4 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y4 land e4) lxor e2)
    + (e1 + 0x3956c25b + w4)
  in
  let a5 =
    (t1
    + (let da = a4 lor (a4 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x5 land x4) lxor a3))
    land mask32
  and e5 = (a1 + t1) land mask32 in
  let x6 = a5 lxor a4
  and y6 = e5 lxor e4 in
  let t1 =
    (let de = e5 lor (e5 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y5 land e5) lxor e3)
    + (e2 + 0x59f111f1 + w5)
  in
  let a6 =
    (t1
    + (let da = a5 lor (a5 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x6 land x5) lxor a4))
    land mask32
  and e6 = (a2 + t1) land mask32 in
  let x7 = a6 lxor a5
  and y7 = e6 lxor e5 in
  let t1 =
    (let de = e6 lor (e6 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y6 land e6) lxor e4)
    + (e3 + 0x923f82a4 + w6)
  in
  let a7 =
    (t1
    + (let da = a6 lor (a6 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x7 land x6) lxor a5))
    land mask32
  and e7 = (a3 + t1) land mask32 in
  let x8 = a7 lxor a6
  and y8 = e7 lxor e6 in
  let t1 =
    (let de = e7 lor (e7 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y7 land e7) lxor e5)
    + (e4 + 0xab1c5ed5 + w7)
  in
  let a8 =
    (t1
    + (let da = a7 lor (a7 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x8 land x7) lxor a6))
    land mask32
  and e8 = (a4 + t1) land mask32 in
  let x9 = a8 lxor a7
  and y9 = e8 lxor e7 in
  let t1 =
    (let de = e8 lor (e8 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y8 land e8) lxor e6)
    + (e5 + 0xd807aa98 + w8)
  in
  let a9 =
    (t1
    + (let da = a8 lor (a8 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x9 land x8) lxor a7))
    land mask32
  and e9 = (a5 + t1) land mask32 in
  let x10 = a9 lxor a8
  and y10 = e9 lxor e8 in
  let t1 =
    (let de = e9 lor (e9 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y9 land e9) lxor e7)
    + (e6 + 0x12835b01 + w9)
  in
  let a10 =
    (t1
    + (let da = a9 lor (a9 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x10 land x9) lxor a8))
    land mask32
  and e10 = (a6 + t1) land mask32 in
  let x11 = a10 lxor a9
  and y11 = e10 lxor e9 in
  let t1 =
    (let de = e10 lor (e10 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y10 land e10) lxor e8)
    + (e7 + 0x243185be + w10)
  in
  let a11 =
    (t1
    + (let da = a10 lor (a10 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x11 land x10) lxor a9))
    land mask32
  and e11 = (a7 + t1) land mask32 in
  let x12 = a11 lxor a10
  and y12 = e11 lxor e10 in
  let t1 =
    (let de = e11 lor (e11 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y11 land e11) lxor e9)
    + (e8 + 0x550c7dc3 + w11)
  in
  let a12 =
    (t1
    + (let da = a11 lor (a11 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x12 land x11) lxor a10))
    land mask32
  and e12 = (a8 + t1) land mask32 in
  let x13 = a12 lxor a11
  and y13 = e12 lxor e11 in
  let t1 =
    (let de = e12 lor (e12 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y12 land e12) lxor e10)
    + (e9 + 0x72be5d74 + w12)
  in
  let a13 =
    (t1
    + (let da = a12 lor (a12 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x13 land x12) lxor a11))
    land mask32
  and e13 = (a9 + t1) land mask32 in
  let x14 = a13 lxor a12
  and y14 = e13 lxor e12 in
  let t1 =
    (let de = e13 lor (e13 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y13 land e13) lxor e11)
    + (e10 + 0x80deb1fe + w13)
  in
  let a14 =
    (t1
    + (let da = a13 lor (a13 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x14 land x13) lxor a12))
    land mask32
  and e14 = (a10 + t1) land mask32 in
  let x15 = a14 lxor a13
  and y15 = e14 lxor e13 in
  let t1 =
    (let de = e14 lor (e14 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y14 land e14) lxor e12)
    + (e11 + 0x9bdc06a7 + w14)
  in
  let a15 =
    (t1
    + (let da = a14 lor (a14 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x15 land x14) lxor a13))
    land mask32
  and e15 = (a11 + t1) land mask32 in
  let x16 = a15 lxor a14
  and y16 = e15 lxor e14 in
  let t1 =
    (let de = e15 lor (e15 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y15 land e15) lxor e13)
    + (e12 + 0xc19bf174 + w15)
  in
  let a16 =
    (t1
    + (let da = a15 lor (a15 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x16 land x15) lxor a14))
    land mask32
  and e16 = (a12 + t1) land mask32 in
  let w16 =
    (w0 + w9
    + (let dw = w1 lor (w1 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w1 lsr 3))
    + (let dv = w14 lor (w14 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w14 lsr 10)))
    land mask32
  in
  let x17 = a16 lxor a15
  and y17 = e16 lxor e15 in
  let t1 =
    (let de = e16 lor (e16 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y16 land e16) lxor e14)
    + (e13 + 0xe49b69c1 + w16)
  in
  let a17 =
    (t1
    + (let da = a16 lor (a16 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x17 land x16) lxor a15))
    land mask32
  and e17 = (a13 + t1) land mask32 in
  let w17 =
    (w1 + w10
    + (let dw = w2 lor (w2 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w2 lsr 3))
    + (let dv = w15 lor (w15 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w15 lsr 10)))
    land mask32
  in
  let x18 = a17 lxor a16
  and y18 = e17 lxor e16 in
  let t1 =
    (let de = e17 lor (e17 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y17 land e17) lxor e15)
    + (e14 + 0xefbe4786 + w17)
  in
  let a18 =
    (t1
    + (let da = a17 lor (a17 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x18 land x17) lxor a16))
    land mask32
  and e18 = (a14 + t1) land mask32 in
  let w18 =
    (w2 + w11
    + (let dw = w3 lor (w3 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w3 lsr 3))
    + (let dv = w16 lor (w16 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w16 lsr 10)))
    land mask32
  in
  let x19 = a18 lxor a17
  and y19 = e18 lxor e17 in
  let t1 =
    (let de = e18 lor (e18 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y18 land e18) lxor e16)
    + (e15 + 0x0fc19dc6 + w18)
  in
  let a19 =
    (t1
    + (let da = a18 lor (a18 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x19 land x18) lxor a17))
    land mask32
  and e19 = (a15 + t1) land mask32 in
  let w19 =
    (w3 + w12
    + (let dw = w4 lor (w4 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w4 lsr 3))
    + (let dv = w17 lor (w17 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w17 lsr 10)))
    land mask32
  in
  let x20 = a19 lxor a18
  and y20 = e19 lxor e18 in
  let t1 =
    (let de = e19 lor (e19 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y19 land e19) lxor e17)
    + (e16 + 0x240ca1cc + w19)
  in
  let a20 =
    (t1
    + (let da = a19 lor (a19 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x20 land x19) lxor a18))
    land mask32
  and e20 = (a16 + t1) land mask32 in
  let w20 =
    (w4 + w13
    + (let dw = w5 lor (w5 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w5 lsr 3))
    + (let dv = w18 lor (w18 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w18 lsr 10)))
    land mask32
  in
  let x21 = a20 lxor a19
  and y21 = e20 lxor e19 in
  let t1 =
    (let de = e20 lor (e20 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y20 land e20) lxor e18)
    + (e17 + 0x2de92c6f + w20)
  in
  let a21 =
    (t1
    + (let da = a20 lor (a20 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x21 land x20) lxor a19))
    land mask32
  and e21 = (a17 + t1) land mask32 in
  let w21 =
    (w5 + w14
    + (let dw = w6 lor (w6 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w6 lsr 3))
    + (let dv = w19 lor (w19 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w19 lsr 10)))
    land mask32
  in
  let x22 = a21 lxor a20
  and y22 = e21 lxor e20 in
  let t1 =
    (let de = e21 lor (e21 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y21 land e21) lxor e19)
    + (e18 + 0x4a7484aa + w21)
  in
  let a22 =
    (t1
    + (let da = a21 lor (a21 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x22 land x21) lxor a20))
    land mask32
  and e22 = (a18 + t1) land mask32 in
  let w22 =
    (w6 + w15
    + (let dw = w7 lor (w7 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w7 lsr 3))
    + (let dv = w20 lor (w20 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w20 lsr 10)))
    land mask32
  in
  let x23 = a22 lxor a21
  and y23 = e22 lxor e21 in
  let t1 =
    (let de = e22 lor (e22 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y22 land e22) lxor e20)
    + (e19 + 0x5cb0a9dc + w22)
  in
  let a23 =
    (t1
    + (let da = a22 lor (a22 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x23 land x22) lxor a21))
    land mask32
  and e23 = (a19 + t1) land mask32 in
  let w23 =
    (w7 + w16
    + (let dw = w8 lor (w8 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w8 lsr 3))
    + (let dv = w21 lor (w21 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w21 lsr 10)))
    land mask32
  in
  let x24 = a23 lxor a22
  and y24 = e23 lxor e22 in
  let t1 =
    (let de = e23 lor (e23 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y23 land e23) lxor e21)
    + (e20 + 0x76f988da + w23)
  in
  let a24 =
    (t1
    + (let da = a23 lor (a23 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x24 land x23) lxor a22))
    land mask32
  and e24 = (a20 + t1) land mask32 in
  let w24 =
    (w8 + w17
    + (let dw = w9 lor (w9 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w9 lsr 3))
    + (let dv = w22 lor (w22 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w22 lsr 10)))
    land mask32
  in
  let x25 = a24 lxor a23
  and y25 = e24 lxor e23 in
  let t1 =
    (let de = e24 lor (e24 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y24 land e24) lxor e22)
    + (e21 + 0x983e5152 + w24)
  in
  let a25 =
    (t1
    + (let da = a24 lor (a24 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x25 land x24) lxor a23))
    land mask32
  and e25 = (a21 + t1) land mask32 in
  let w25 =
    (w9 + w18
    + (let dw = w10 lor (w10 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w10 lsr 3))
    + (let dv = w23 lor (w23 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w23 lsr 10)))
    land mask32
  in
  let x26 = a25 lxor a24
  and y26 = e25 lxor e24 in
  let t1 =
    (let de = e25 lor (e25 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y25 land e25) lxor e23)
    + (e22 + 0xa831c66d + w25)
  in
  let a26 =
    (t1
    + (let da = a25 lor (a25 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x26 land x25) lxor a24))
    land mask32
  and e26 = (a22 + t1) land mask32 in
  let w26 =
    (w10 + w19
    + (let dw = w11 lor (w11 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w11 lsr 3))
    + (let dv = w24 lor (w24 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w24 lsr 10)))
    land mask32
  in
  let x27 = a26 lxor a25
  and y27 = e26 lxor e25 in
  let t1 =
    (let de = e26 lor (e26 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y26 land e26) lxor e24)
    + (e23 + 0xb00327c8 + w26)
  in
  let a27 =
    (t1
    + (let da = a26 lor (a26 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x27 land x26) lxor a25))
    land mask32
  and e27 = (a23 + t1) land mask32 in
  let w27 =
    (w11 + w20
    + (let dw = w12 lor (w12 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w12 lsr 3))
    + (let dv = w25 lor (w25 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w25 lsr 10)))
    land mask32
  in
  let x28 = a27 lxor a26
  and y28 = e27 lxor e26 in
  let t1 =
    (let de = e27 lor (e27 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y27 land e27) lxor e25)
    + (e24 + 0xbf597fc7 + w27)
  in
  let a28 =
    (t1
    + (let da = a27 lor (a27 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x28 land x27) lxor a26))
    land mask32
  and e28 = (a24 + t1) land mask32 in
  let w28 =
    (w12 + w21
    + (let dw = w13 lor (w13 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w13 lsr 3))
    + (let dv = w26 lor (w26 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w26 lsr 10)))
    land mask32
  in
  let x29 = a28 lxor a27
  and y29 = e28 lxor e27 in
  let t1 =
    (let de = e28 lor (e28 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y28 land e28) lxor e26)
    + (e25 + 0xc6e00bf3 + w28)
  in
  let a29 =
    (t1
    + (let da = a28 lor (a28 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x29 land x28) lxor a27))
    land mask32
  and e29 = (a25 + t1) land mask32 in
  let w29 =
    (w13 + w22
    + (let dw = w14 lor (w14 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w14 lsr 3))
    + (let dv = w27 lor (w27 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w27 lsr 10)))
    land mask32
  in
  let x30 = a29 lxor a28
  and y30 = e29 lxor e28 in
  let t1 =
    (let de = e29 lor (e29 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y29 land e29) lxor e27)
    + (e26 + 0xd5a79147 + w29)
  in
  let a30 =
    (t1
    + (let da = a29 lor (a29 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x30 land x29) lxor a28))
    land mask32
  and e30 = (a26 + t1) land mask32 in
  let w30 =
    (w14 + w23
    + (let dw = w15 lor (w15 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w15 lsr 3))
    + (let dv = w28 lor (w28 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w28 lsr 10)))
    land mask32
  in
  let x31 = a30 lxor a29
  and y31 = e30 lxor e29 in
  let t1 =
    (let de = e30 lor (e30 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y30 land e30) lxor e28)
    + (e27 + 0x06ca6351 + w30)
  in
  let a31 =
    (t1
    + (let da = a30 lor (a30 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x31 land x30) lxor a29))
    land mask32
  and e31 = (a27 + t1) land mask32 in
  let w31 =
    (w15 + w24
    + (let dw = w16 lor (w16 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w16 lsr 3))
    + (let dv = w29 lor (w29 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w29 lsr 10)))
    land mask32
  in
  let x32 = a31 lxor a30
  and y32 = e31 lxor e30 in
  let t1 =
    (let de = e31 lor (e31 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y31 land e31) lxor e29)
    + (e28 + 0x14292967 + w31)
  in
  let a32 =
    (t1
    + (let da = a31 lor (a31 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x32 land x31) lxor a30))
    land mask32
  and e32 = (a28 + t1) land mask32 in
  let w32 =
    (w16 + w25
    + (let dw = w17 lor (w17 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w17 lsr 3))
    + (let dv = w30 lor (w30 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w30 lsr 10)))
    land mask32
  in
  let x33 = a32 lxor a31
  and y33 = e32 lxor e31 in
  let t1 =
    (let de = e32 lor (e32 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y32 land e32) lxor e30)
    + (e29 + 0x27b70a85 + w32)
  in
  let a33 =
    (t1
    + (let da = a32 lor (a32 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x33 land x32) lxor a31))
    land mask32
  and e33 = (a29 + t1) land mask32 in
  let w33 =
    (w17 + w26
    + (let dw = w18 lor (w18 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w18 lsr 3))
    + (let dv = w31 lor (w31 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w31 lsr 10)))
    land mask32
  in
  let x34 = a33 lxor a32
  and y34 = e33 lxor e32 in
  let t1 =
    (let de = e33 lor (e33 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y33 land e33) lxor e31)
    + (e30 + 0x2e1b2138 + w33)
  in
  let a34 =
    (t1
    + (let da = a33 lor (a33 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x34 land x33) lxor a32))
    land mask32
  and e34 = (a30 + t1) land mask32 in
  let w34 =
    (w18 + w27
    + (let dw = w19 lor (w19 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w19 lsr 3))
    + (let dv = w32 lor (w32 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w32 lsr 10)))
    land mask32
  in
  let x35 = a34 lxor a33
  and y35 = e34 lxor e33 in
  let t1 =
    (let de = e34 lor (e34 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y34 land e34) lxor e32)
    + (e31 + 0x4d2c6dfc + w34)
  in
  let a35 =
    (t1
    + (let da = a34 lor (a34 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x35 land x34) lxor a33))
    land mask32
  and e35 = (a31 + t1) land mask32 in
  let w35 =
    (w19 + w28
    + (let dw = w20 lor (w20 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w20 lsr 3))
    + (let dv = w33 lor (w33 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w33 lsr 10)))
    land mask32
  in
  let x36 = a35 lxor a34
  and y36 = e35 lxor e34 in
  let t1 =
    (let de = e35 lor (e35 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y35 land e35) lxor e33)
    + (e32 + 0x53380d13 + w35)
  in
  let a36 =
    (t1
    + (let da = a35 lor (a35 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x36 land x35) lxor a34))
    land mask32
  and e36 = (a32 + t1) land mask32 in
  let w36 =
    (w20 + w29
    + (let dw = w21 lor (w21 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w21 lsr 3))
    + (let dv = w34 lor (w34 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w34 lsr 10)))
    land mask32
  in
  let x37 = a36 lxor a35
  and y37 = e36 lxor e35 in
  let t1 =
    (let de = e36 lor (e36 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y36 land e36) lxor e34)
    + (e33 + 0x650a7354 + w36)
  in
  let a37 =
    (t1
    + (let da = a36 lor (a36 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x37 land x36) lxor a35))
    land mask32
  and e37 = (a33 + t1) land mask32 in
  let w37 =
    (w21 + w30
    + (let dw = w22 lor (w22 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w22 lsr 3))
    + (let dv = w35 lor (w35 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w35 lsr 10)))
    land mask32
  in
  let x38 = a37 lxor a36
  and y38 = e37 lxor e36 in
  let t1 =
    (let de = e37 lor (e37 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y37 land e37) lxor e35)
    + (e34 + 0x766a0abb + w37)
  in
  let a38 =
    (t1
    + (let da = a37 lor (a37 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x38 land x37) lxor a36))
    land mask32
  and e38 = (a34 + t1) land mask32 in
  let w38 =
    (w22 + w31
    + (let dw = w23 lor (w23 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w23 lsr 3))
    + (let dv = w36 lor (w36 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w36 lsr 10)))
    land mask32
  in
  let x39 = a38 lxor a37
  and y39 = e38 lxor e37 in
  let t1 =
    (let de = e38 lor (e38 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y38 land e38) lxor e36)
    + (e35 + 0x81c2c92e + w38)
  in
  let a39 =
    (t1
    + (let da = a38 lor (a38 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x39 land x38) lxor a37))
    land mask32
  and e39 = (a35 + t1) land mask32 in
  let w39 =
    (w23 + w32
    + (let dw = w24 lor (w24 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w24 lsr 3))
    + (let dv = w37 lor (w37 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w37 lsr 10)))
    land mask32
  in
  let x40 = a39 lxor a38
  and y40 = e39 lxor e38 in
  let t1 =
    (let de = e39 lor (e39 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y39 land e39) lxor e37)
    + (e36 + 0x92722c85 + w39)
  in
  let a40 =
    (t1
    + (let da = a39 lor (a39 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x40 land x39) lxor a38))
    land mask32
  and e40 = (a36 + t1) land mask32 in
  let w40 =
    (w24 + w33
    + (let dw = w25 lor (w25 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w25 lsr 3))
    + (let dv = w38 lor (w38 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w38 lsr 10)))
    land mask32
  in
  let x41 = a40 lxor a39
  and y41 = e40 lxor e39 in
  let t1 =
    (let de = e40 lor (e40 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y40 land e40) lxor e38)
    + (e37 + 0xa2bfe8a1 + w40)
  in
  let a41 =
    (t1
    + (let da = a40 lor (a40 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x41 land x40) lxor a39))
    land mask32
  and e41 = (a37 + t1) land mask32 in
  let w41 =
    (w25 + w34
    + (let dw = w26 lor (w26 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w26 lsr 3))
    + (let dv = w39 lor (w39 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w39 lsr 10)))
    land mask32
  in
  let x42 = a41 lxor a40
  and y42 = e41 lxor e40 in
  let t1 =
    (let de = e41 lor (e41 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y41 land e41) lxor e39)
    + (e38 + 0xa81a664b + w41)
  in
  let a42 =
    (t1
    + (let da = a41 lor (a41 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x42 land x41) lxor a40))
    land mask32
  and e42 = (a38 + t1) land mask32 in
  let w42 =
    (w26 + w35
    + (let dw = w27 lor (w27 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w27 lsr 3))
    + (let dv = w40 lor (w40 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w40 lsr 10)))
    land mask32
  in
  let x43 = a42 lxor a41
  and y43 = e42 lxor e41 in
  let t1 =
    (let de = e42 lor (e42 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y42 land e42) lxor e40)
    + (e39 + 0xc24b8b70 + w42)
  in
  let a43 =
    (t1
    + (let da = a42 lor (a42 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x43 land x42) lxor a41))
    land mask32
  and e43 = (a39 + t1) land mask32 in
  let w43 =
    (w27 + w36
    + (let dw = w28 lor (w28 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w28 lsr 3))
    + (let dv = w41 lor (w41 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w41 lsr 10)))
    land mask32
  in
  let x44 = a43 lxor a42
  and y44 = e43 lxor e42 in
  let t1 =
    (let de = e43 lor (e43 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y43 land e43) lxor e41)
    + (e40 + 0xc76c51a3 + w43)
  in
  let a44 =
    (t1
    + (let da = a43 lor (a43 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x44 land x43) lxor a42))
    land mask32
  and e44 = (a40 + t1) land mask32 in
  let w44 =
    (w28 + w37
    + (let dw = w29 lor (w29 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w29 lsr 3))
    + (let dv = w42 lor (w42 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w42 lsr 10)))
    land mask32
  in
  let x45 = a44 lxor a43
  and y45 = e44 lxor e43 in
  let t1 =
    (let de = e44 lor (e44 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y44 land e44) lxor e42)
    + (e41 + 0xd192e819 + w44)
  in
  let a45 =
    (t1
    + (let da = a44 lor (a44 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x45 land x44) lxor a43))
    land mask32
  and e45 = (a41 + t1) land mask32 in
  let w45 =
    (w29 + w38
    + (let dw = w30 lor (w30 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w30 lsr 3))
    + (let dv = w43 lor (w43 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w43 lsr 10)))
    land mask32
  in
  let x46 = a45 lxor a44
  and y46 = e45 lxor e44 in
  let t1 =
    (let de = e45 lor (e45 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y45 land e45) lxor e43)
    + (e42 + 0xd6990624 + w45)
  in
  let a46 =
    (t1
    + (let da = a45 lor (a45 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x46 land x45) lxor a44))
    land mask32
  and e46 = (a42 + t1) land mask32 in
  let w46 =
    (w30 + w39
    + (let dw = w31 lor (w31 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w31 lsr 3))
    + (let dv = w44 lor (w44 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w44 lsr 10)))
    land mask32
  in
  let x47 = a46 lxor a45
  and y47 = e46 lxor e45 in
  let t1 =
    (let de = e46 lor (e46 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y46 land e46) lxor e44)
    + (e43 + 0xf40e3585 + w46)
  in
  let a47 =
    (t1
    + (let da = a46 lor (a46 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x47 land x46) lxor a45))
    land mask32
  and e47 = (a43 + t1) land mask32 in
  let w47 =
    (w31 + w40
    + (let dw = w32 lor (w32 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w32 lsr 3))
    + (let dv = w45 lor (w45 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w45 lsr 10)))
    land mask32
  in
  let x48 = a47 lxor a46
  and y48 = e47 lxor e46 in
  let t1 =
    (let de = e47 lor (e47 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y47 land e47) lxor e45)
    + (e44 + 0x106aa070 + w47)
  in
  let a48 =
    (t1
    + (let da = a47 lor (a47 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x48 land x47) lxor a46))
    land mask32
  and e48 = (a44 + t1) land mask32 in
  let w48 =
    (w32 + w41
    + (let dw = w33 lor (w33 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w33 lsr 3))
    + (let dv = w46 lor (w46 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w46 lsr 10)))
    land mask32
  in
  let x49 = a48 lxor a47
  and y49 = e48 lxor e47 in
  let t1 =
    (let de = e48 lor (e48 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y48 land e48) lxor e46)
    + (e45 + 0x19a4c116 + w48)
  in
  let a49 =
    (t1
    + (let da = a48 lor (a48 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x49 land x48) lxor a47))
    land mask32
  and e49 = (a45 + t1) land mask32 in
  let w49 =
    (w33 + w42
    + (let dw = w34 lor (w34 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w34 lsr 3))
    + (let dv = w47 lor (w47 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w47 lsr 10)))
    land mask32
  in
  let x50 = a49 lxor a48
  and y50 = e49 lxor e48 in
  let t1 =
    (let de = e49 lor (e49 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y49 land e49) lxor e47)
    + (e46 + 0x1e376c08 + w49)
  in
  let a50 =
    (t1
    + (let da = a49 lor (a49 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x50 land x49) lxor a48))
    land mask32
  and e50 = (a46 + t1) land mask32 in
  let w50 =
    (w34 + w43
    + (let dw = w35 lor (w35 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w35 lsr 3))
    + (let dv = w48 lor (w48 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w48 lsr 10)))
    land mask32
  in
  let x51 = a50 lxor a49
  and y51 = e50 lxor e49 in
  let t1 =
    (let de = e50 lor (e50 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y50 land e50) lxor e48)
    + (e47 + 0x2748774c + w50)
  in
  let a51 =
    (t1
    + (let da = a50 lor (a50 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x51 land x50) lxor a49))
    land mask32
  and e51 = (a47 + t1) land mask32 in
  let w51 =
    (w35 + w44
    + (let dw = w36 lor (w36 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w36 lsr 3))
    + (let dv = w49 lor (w49 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w49 lsr 10)))
    land mask32
  in
  let x52 = a51 lxor a50
  and y52 = e51 lxor e50 in
  let t1 =
    (let de = e51 lor (e51 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y51 land e51) lxor e49)
    + (e48 + 0x34b0bcb5 + w51)
  in
  let a52 =
    (t1
    + (let da = a51 lor (a51 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x52 land x51) lxor a50))
    land mask32
  and e52 = (a48 + t1) land mask32 in
  let w52 =
    (w36 + w45
    + (let dw = w37 lor (w37 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w37 lsr 3))
    + (let dv = w50 lor (w50 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w50 lsr 10)))
    land mask32
  in
  let x53 = a52 lxor a51
  and y53 = e52 lxor e51 in
  let t1 =
    (let de = e52 lor (e52 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y52 land e52) lxor e50)
    + (e49 + 0x391c0cb3 + w52)
  in
  let a53 =
    (t1
    + (let da = a52 lor (a52 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x53 land x52) lxor a51))
    land mask32
  and e53 = (a49 + t1) land mask32 in
  let w53 =
    (w37 + w46
    + (let dw = w38 lor (w38 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w38 lsr 3))
    + (let dv = w51 lor (w51 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w51 lsr 10)))
    land mask32
  in
  let x54 = a53 lxor a52
  and y54 = e53 lxor e52 in
  let t1 =
    (let de = e53 lor (e53 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y53 land e53) lxor e51)
    + (e50 + 0x4ed8aa4a + w53)
  in
  let a54 =
    (t1
    + (let da = a53 lor (a53 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x54 land x53) lxor a52))
    land mask32
  and e54 = (a50 + t1) land mask32 in
  let w54 =
    (w38 + w47
    + (let dw = w39 lor (w39 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w39 lsr 3))
    + (let dv = w52 lor (w52 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w52 lsr 10)))
    land mask32
  in
  let x55 = a54 lxor a53
  and y55 = e54 lxor e53 in
  let t1 =
    (let de = e54 lor (e54 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y54 land e54) lxor e52)
    + (e51 + 0x5b9cca4f + w54)
  in
  let a55 =
    (t1
    + (let da = a54 lor (a54 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x55 land x54) lxor a53))
    land mask32
  and e55 = (a51 + t1) land mask32 in
  let w55 =
    (w39 + w48
    + (let dw = w40 lor (w40 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w40 lsr 3))
    + (let dv = w53 lor (w53 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w53 lsr 10)))
    land mask32
  in
  let x56 = a55 lxor a54
  and y56 = e55 lxor e54 in
  let t1 =
    (let de = e55 lor (e55 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y55 land e55) lxor e53)
    + (e52 + 0x682e6ff3 + w55)
  in
  let a56 =
    (t1
    + (let da = a55 lor (a55 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x56 land x55) lxor a54))
    land mask32
  and e56 = (a52 + t1) land mask32 in
  let w56 =
    (w40 + w49
    + (let dw = w41 lor (w41 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w41 lsr 3))
    + (let dv = w54 lor (w54 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w54 lsr 10)))
    land mask32
  in
  let x57 = a56 lxor a55
  and y57 = e56 lxor e55 in
  let t1 =
    (let de = e56 lor (e56 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y56 land e56) lxor e54)
    + (e53 + 0x748f82ee + w56)
  in
  let a57 =
    (t1
    + (let da = a56 lor (a56 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x57 land x56) lxor a55))
    land mask32
  and e57 = (a53 + t1) land mask32 in
  let w57 =
    (w41 + w50
    + (let dw = w42 lor (w42 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w42 lsr 3))
    + (let dv = w55 lor (w55 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w55 lsr 10)))
    land mask32
  in
  let x58 = a57 lxor a56
  and y58 = e57 lxor e56 in
  let t1 =
    (let de = e57 lor (e57 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y57 land e57) lxor e55)
    + (e54 + 0x78a5636f + w57)
  in
  let a58 =
    (t1
    + (let da = a57 lor (a57 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x58 land x57) lxor a56))
    land mask32
  and e58 = (a54 + t1) land mask32 in
  let w58 =
    (w42 + w51
    + (let dw = w43 lor (w43 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w43 lsr 3))
    + (let dv = w56 lor (w56 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w56 lsr 10)))
    land mask32
  in
  let x59 = a58 lxor a57
  and y59 = e58 lxor e57 in
  let t1 =
    (let de = e58 lor (e58 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y58 land e58) lxor e56)
    + (e55 + 0x84c87814 + w58)
  in
  let a59 =
    (t1
    + (let da = a58 lor (a58 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x59 land x58) lxor a57))
    land mask32
  and e59 = (a55 + t1) land mask32 in
  let w59 =
    (w43 + w52
    + (let dw = w44 lor (w44 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w44 lsr 3))
    + (let dv = w57 lor (w57 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w57 lsr 10)))
    land mask32
  in
  let x60 = a59 lxor a58
  and y60 = e59 lxor e58 in
  let t1 =
    (let de = e59 lor (e59 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y59 land e59) lxor e57)
    + (e56 + 0x8cc70208 + w59)
  in
  let a60 =
    (t1
    + (let da = a59 lor (a59 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x60 land x59) lxor a58))
    land mask32
  and e60 = (a56 + t1) land mask32 in
  let w60 =
    (w44 + w53
    + (let dw = w45 lor (w45 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w45 lsr 3))
    + (let dv = w58 lor (w58 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w58 lsr 10)))
    land mask32
  in
  let x61 = a60 lxor a59
  and y61 = e60 lxor e59 in
  let t1 =
    (let de = e60 lor (e60 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y60 land e60) lxor e58)
    + (e57 + 0x90befffa + w60)
  in
  let a61 =
    (t1
    + (let da = a60 lor (a60 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x61 land x60) lxor a59))
    land mask32
  and e61 = (a57 + t1) land mask32 in
  let w61 =
    (w45 + w54
    + (let dw = w46 lor (w46 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w46 lsr 3))
    + (let dv = w59 lor (w59 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w59 lsr 10)))
    land mask32
  in
  let x62 = a61 lxor a60
  and y62 = e61 lxor e60 in
  let t1 =
    (let de = e61 lor (e61 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y61 land e61) lxor e59)
    + (e58 + 0xa4506ceb + w61)
  in
  let a62 =
    (t1
    + (let da = a61 lor (a61 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x62 land x61) lxor a60))
    land mask32
  and e62 = (a58 + t1) land mask32 in
  let w62 =
    (w46 + w55
    + (let dw = w47 lor (w47 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w47 lsr 3))
    + (let dv = w60 lor (w60 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w60 lsr 10)))
    land mask32
  in
  let x63 = a62 lxor a61
  and y63 = e62 lxor e61 in
  let t1 =
    (let de = e62 lor (e62 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y62 land e62) lxor e60)
    + (e59 + 0xbef9a3f7 + w62)
  in
  let a63 =
    (t1
    + (let da = a62 lor (a62 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x63 land x62) lxor a61))
    land mask32
  and e63 = (a59 + t1) land mask32 in
  let w63 =
    (w47 + w56
    + (let dw = w48 lor (w48 lsl 32) in
      (dw lsr 7) lxor (dw lsr 18) lxor (w48 lsr 3))
    + (let dv = w61 lor (w61 lsl 32) in
      (dv lsr 17) lxor (dv lsr 19) lxor (w61 lsr 10)))
    land mask32
  in
  let x64 = a63 lxor a62
  and y64 = e63 lxor e62 in
  let t1 =
    (let de = e63 lor (e63 lsl 32) in
       (de lsr 6) lxor (de lsr 11) lxor (de lsr 25))
    + ((y63 land e63) lxor e61)
    + (e60 + 0xc67178f2 + w63)
  in
  let a64 =
    (t1
    + (let da = a63 lor (a63 lsl 32) in
       (da lsr 2) lxor (da lsr 13) lxor (da lsr 22))
    + ((x64 land x63) lxor a62))
    land mask32
  and e64 = (a60 + t1) land mask32 in
  ignore x64;
  ignore y64;
  Array.unsafe_set h 0 ((a0 + a64) land mask32);
  Array.unsafe_set h 1 ((b0 + a63) land mask32);
  Array.unsafe_set h 2 ((c0 + a62) land mask32);
  Array.unsafe_set h 3 ((d0 + a61) land mask32);
  Array.unsafe_set h 4 ((e0 + e64) land mask32);
  Array.unsafe_set h 5 ((f0 + e63) land mask32);
  Array.unsafe_set h 6 ((g0 + e62) land mask32);
  Array.unsafe_set h 7 ((h0 + e61) land mask32)

let feed_with compress t b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.feed";
  t.total <- t.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partial block first. *)
  if t.fill > 0 then begin
    let take = min (64 - t.fill) !remaining in
    Bytes.blit b !pos t.block t.fill take;
    t.fill <- t.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if t.fill = 64 then begin
      compress t t.block 0;
      t.fill <- 0
    end
  end;
  while !remaining >= 64 do
    compress t b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos t.block t.fill !remaining;
    t.fill <- t.fill + !remaining
  end

let feed t b ~off ~len = feed_with compress_fast t b ~off ~len

let feed_string t s =
  feed t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let finalize_with compress t =
  let bitlen = t.total * 8 in
  (* Append 0x80, zero padding, and the 64-bit big-endian length. *)
  Bytes.set t.block t.fill '\x80';
  if t.fill >= 56 then begin
    Bytes.fill t.block (t.fill + 1) (64 - t.fill - 1) '\x00';
    compress t t.block 0;
    Bytes.fill t.block 0 56 '\x00'
  end
  else Bytes.fill t.block (t.fill + 1) (56 - t.fill - 1) '\x00';
  for i = 0 to 7 do
    Bytes.set t.block (56 + i)
      (Char.chr ((bitlen lsr ((7 - i) * 8)) land 0xff))
  done;
  compress t t.block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = t.h.(i) in
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xff))
  done;
  out

let finalize t = finalize_with compress_fast t

let compress t b ~off = compress_fast t b off

let digest_bytes b =
  let t = init () in
  feed t b ~off:0 ~len:(Bytes.length b);
  finalize t

let digest_string s =
  let t = init () in
  feed_string t s;
  finalize t

module Reference = struct
  let digest_bytes b =
    let t = init () in
    feed_with compress_ref t b ~off:0 ~len:(Bytes.length b);
    finalize_with compress_ref t

  let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

  let compress t b ~off = compress_ref t b off
end

let hex b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf
