(* CRC-16/CCITT-FALSE (init 0xFFFF, poly 0x1021, MSB-first, no reflect).

   One checksum kernel for every frame on the wire: the bitwise version
   is the oracle, the 256-entry table derived from it at module init is
   the scalar production kernel, and the slicing-by-4 variant is the
   data-plane kernel used by the zero-copy frame path, where the CRC is
   the only per-byte work left (iopath bench). All three compute the
   same function; the equivalence is property-tested. *)

let init = 0xFFFF

module Reference = struct
  (* Bit-at-a-time over the polynomial — the single source of truth. *)
  let update crc b ~off ~len =
    if off < 0 || len < 0 || off + len > Bytes.length b then
      invalid_arg "Crc16.Reference.update";
    let crc = ref (crc land 0xFFFF) in
    for i = off to off + len - 1 do
      crc := !crc lxor (Char.code (Bytes.get b i) lsl 8);
      for _ = 1 to 8 do
        if !crc land 0x8000 <> 0 then
          crc := ((!crc lsl 1) lxor 0x1021) land 0xFFFF
        else crc := (!crc lsl 1) land 0xFFFF
      done
    done;
    !crc

  let digest b ~off ~len = update init b ~off ~len
end

let table =
  Array.init 256 (fun byte ->
      let crc = ref (byte lsl 8) in
      for _ = 1 to 8 do
        if !crc land 0x8000 <> 0 then
          crc := ((!crc lsl 1) lxor 0x1021) land 0xFFFF
        else crc := (!crc lsl 1) land 0xFFFF
      done;
      !crc)

let update crc b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc16.update";
  let crc = ref (crc land 0xFFFF) in
  for i = off to off + len - 1 do
    let idx = (!crc lsr 8) lxor Char.code (Bytes.unsafe_get b i) in
    crc := ((!crc lsl 8) lxor Array.unsafe_get table idx) land 0xFFFF
  done;
  !crc

let digest b ~off ~len = update init b ~off ~len

(* Slicing-by-4: process 4 input bytes per iteration with one table
   lookup each and no inter-byte carry chain. T_k[b] is the CRC of byte
   [b] followed by [k] zero bytes (from a zero state); by GF(2)
   linearity, advancing state [c] over bytes x0..x3 is
     T3[x0 ^ hi c] ^ T2[x1 ^ lo c] ^ T1[x2] ^ T0[x3]
   since only the two state bytes of a 16-bit CRC mix into the input. *)
let advance c = ((c lsl 8) lxor Array.unsafe_get table (c lsr 8)) land 0xFFFF

let table1 = Array.map advance table

let table2 = Array.map advance table1

let table3 = Array.map advance table2

let update_fast crc b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc16.update_fast";
  let crc = ref (crc land 0xFFFF) in
  let i = ref off in
  let stop4 = off + (len land lnot 3) in
  while !i < stop4 do
    let x0 = Char.code (Bytes.unsafe_get b !i) lxor (!crc lsr 8) in
    let x1 = Char.code (Bytes.unsafe_get b (!i + 1)) lxor (!crc land 0xff) in
    let x2 = Char.code (Bytes.unsafe_get b (!i + 2)) in
    let x3 = Char.code (Bytes.unsafe_get b (!i + 3)) in
    crc :=
      Array.unsafe_get table3 x0
      lxor Array.unsafe_get table2 x1
      lxor Array.unsafe_get table1 x2
      lxor Array.unsafe_get table x3;
    i := !i + 4
  done;
  while !i < off + len do
    let idx = (!crc lsr 8) lxor Char.code (Bytes.unsafe_get b !i) in
    crc := ((!crc lsl 8) lxor Array.unsafe_get table idx) land 0xFFFF;
    incr i
  done;
  !crc
