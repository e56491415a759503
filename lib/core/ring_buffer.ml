type t = {
  mutable slots : int array; (* entry i at [offset t i], [width] ints *)
  mutable room : int; (* entries [slots] has room for *)
  width : int;
  capacity : int;
  mutable head : int; (* oldest entry *)
  mutable len : int;
  mutable drops : int;
}

let create ~capacity ~width =
  if capacity <= 0 || width <= 0 then invalid_arg "Ring_buffer.create";
  { slots = [||]; room = 0; width; capacity; head = 0; len = 0; drops = 0 }

let length t = t.len

let data t = t.slots

let offset t i = (t.head + i) mod t.room * t.width

(* Double the room, up to [capacity], with the oldest entry moved to
   slot 0: a queue that never holds more than a few entries keeps a
   small array. *)
let grow t =
  let room = min t.capacity (max 2 (2 * t.room)) in
  let slots = Array.make (room * t.width) 0 in
  for i = 0 to t.len - 1 do
    Array.blit t.slots (offset t i) slots (i * t.width) t.width
  done;
  t.slots <- slots;
  t.room <- room;
  t.head <- 0

let push t =
  if t.len = t.capacity then begin
    t.drops <- t.drops + 1;
    -1
  end
  else begin
    if t.len = t.room then grow t;
    let o = offset t t.len in
    t.len <- t.len + 1;
    o
  end

let rec find_from t a b i =
  if i >= t.len then -1
  else
    let o = offset t i in
    if t.slots.(o) = a && t.slots.(o + 1) = b then i else find_from t a b (i + 1)

let find t a b =
  if t.width < 2 then invalid_arg "Ring_buffer.find";
  find_from t a b 0

let remove t i =
  if i < 0 || i >= t.len then invalid_arg "Ring_buffer.remove";
  if i = 0 then t.head <- (t.head + 1) mod t.room
  else
    for j = i to t.len - 2 do
      Array.blit t.slots (offset t (j + 1)) t.slots (offset t j) t.width
    done;
  t.len <- t.len - 1

let drops t = t.drops

let set_drops t n = t.drops <- n

let clear t =
  t.head <- 0;
  t.len <- 0

(* ---- byte ring with bulk transfers ---------------------------------- *)

module Bytes_ring = struct
  type t = {
    buf : bytes;
    mutable head : int; (* next pop position *)
    mutable len : int;
    mutable dropped : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Ring_buffer.Bytes_ring.create";
    { buf = Bytes.create capacity; head = 0; len = 0; dropped = 0 }

  let length t = t.len

  let free t = Bytes.length t.buf - t.len

  let is_empty t = t.len = 0

  let dropped t = t.dropped

  (* Append up to [len] bytes in at most two blits (the wrap). Stream
     semantics: a write that does not fit is accepted up to [free] and
     the overflow is dropped-new and counted, byte for byte. *)
  let push_slice t src ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length src then
      invalid_arg "Ring_buffer.Bytes_ring.push_slice";
    let cap = Bytes.length t.buf in
    let n = min len (free t) in
    if n > 0 then begin
      let tail = (t.head + t.len) mod cap in
      let first = min n (cap - tail) in
      Bytes.blit src pos t.buf tail first;
      if n > first then Bytes.blit src (pos + first) t.buf 0 (n - first);
      t.len <- t.len + n
    end;
    t.dropped <- t.dropped + (len - n);
    n

  let push_string t s =
    let cap = Bytes.length t.buf in
    let len = String.length s in
    let n = min len (free t) in
    if n > 0 then begin
      let tail = (t.head + t.len) mod cap in
      let first = min n (cap - tail) in
      String.blit s 0 t.buf tail first;
      if n > first then String.blit s first t.buf 0 (n - first);
      t.len <- t.len + n
    end;
    t.dropped <- t.dropped + (len - n);
    n

  (* Drain up to the window's length in at most two counted blits —
     this is what lets the debug writer hand a whole burst of queued
     messages to the UART as one batched transmit. *)
  let pop_into t (dst : Subslice.t) =
    let cap = Bytes.length t.buf in
    let n = min t.len (Subslice.length dst) in
    if n > 0 then begin
      let first = min n (cap - t.head) in
      Subslice.blit_from_bytes ~src:t.buf ~src_off:t.head dst ~dst_off:0
        ~len:first;
      if n > first then
        Subslice.blit_from_bytes ~src:t.buf ~src_off:0 dst ~dst_off:first
          ~len:(n - first);
      t.head <- (t.head + n) mod cap;
      t.len <- t.len - n
    end;
    n
end
