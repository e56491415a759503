type 'a t = {
  slots : 'a array;
  mutable head : int; (* next pop position *)
  mutable len : int;
  mutable drops : int;
}

let create ~capacity ~dummy =
  if capacity <= 0 then invalid_arg "Ring_buffer.create";
  { slots = Array.make capacity dummy; head = 0; len = 0; drops = 0 }

let length t = t.len

let is_empty t = t.len = 0

let is_full t = t.len = Array.length t.slots

let push t v =
  if is_full t then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    t.slots.((t.head + t.len) mod Array.length t.slots) <- v;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let v = t.slots.(t.head) in
    t.head <- (t.head + 1) mod Array.length t.slots;
    t.len <- t.len - 1;
    Some v
  end

let peek t = if t.len = 0 then None else Some t.slots.(t.head)

let drops t = t.drops

let set_drops t n = t.drops <- n

let clear t =
  t.head <- 0;
  t.len <- 0

let iter t f =
  for i = 0 to t.len - 1 do
    f t.slots.((t.head + i) mod Array.length t.slots)
  done

let find_remove t pred =
  let cap = Array.length t.slots in
  let found = ref None in
  let kept = ref [] in
  for i = 0 to t.len - 1 do
    let v = t.slots.((t.head + i) mod cap) in
    if !found = None && pred v then found := Some v else kept := v :: !kept
  done;
  match !found with
  | None -> None
  | Some v ->
      let kept = List.rev !kept in
      clear t;
      List.iter (fun x -> ignore (push t x)) kept;
      Some v

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
