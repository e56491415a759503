type t = {
  buf : bytes;
  base_start : int;
  base_len : int;
  mutable start : int;
  mutable len : int;
}

(* Module-wide copy accounting (§4.2 / iopath bench): every operation
   that moves window bytes between buffers bumps this counter. Trusted
   DMA models gather via [underlying]/[window] and are deliberately not
   counted — the counter measures data-plane copies the kernel or a
   capsule performs, which is exactly what the zero-copy gates assert
   to be 0. Atomic, because every board in a fleet run bumps it from
   its own domain; a plain ref would drop increments under contention
   and let a racy zero-copy gate pass on a lost count. *)
let copies = Atomic.make 0

let count len = if len > 0 then Atomic.incr copies

let copy_count () = Atomic.get copies

let of_bytes_window buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Subslice.of_bytes_window: outside buffer";
  { buf; base_start = pos; base_len = len; start = pos; len }

let of_bytes buf = of_bytes_window buf ~pos:0 ~len:(Bytes.length buf)

let create n = of_bytes (Bytes.make n '\x00')

let clone t =
  {
    buf = t.buf;
    base_start = t.base_start;
    base_len = t.base_len;
    start = t.start;
    len = t.len;
  }

let length t = t.len

let slice t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Subslice.slice: outside current window";
  t.start <- t.start + pos;
  t.len <- len

let slice_from t pos = slice t ~pos ~len:(t.len - pos)

let slice_to t len = slice t ~pos:0 ~len

let reset t =
  t.start <- t.base_start;
  t.len <- t.base_len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Subslice: index outside window"

let get t i =
  check t i;
  Bytes.get t.buf (t.start + i)

let set t i c =
  check t i;
  Bytes.set t.buf (t.start + i) c

let get_u8 t i = Char.code (get t i)

let set_u8 t i v = set t i (Char.chr (v land 0xff))

let check_range t off len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg "Subslice: range outside window"

let blit_from_bytes ~src ~src_off t ~dst_off ~len =
  check_range t dst_off len;
  count len;
  Bytes.blit src src_off t.buf (t.start + dst_off) len

let blit_to_bytes t ~src_off ~dst ~dst_off ~len =
  check_range t src_off len;
  count len;
  Bytes.blit t.buf (t.start + src_off) dst dst_off len

let copy_within src dst =
  let n = min src.len dst.len in
  count n;
  Bytes.blit src.buf src.start dst.buf dst.start n

let blit ~src ~src_off ~dst ~dst_off ~len =
  check_range src src_off len;
  check_range dst dst_off len;
  count len;
  Bytes.blit src.buf (src.start + src_off) dst.buf (dst.start + dst_off) len

let to_bytes t =
  count t.len;
  Bytes.sub t.buf t.start t.len

let window t = (t.start, t.len)

let underlying t = t.buf

let fill t c = Bytes.fill t.buf t.start t.len c
