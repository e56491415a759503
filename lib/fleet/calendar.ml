(* The parked-witness calendar: a 4-ary min-heap of payloads keyed by
   absolute simulated-cycle deadlines. Each domain owns one, holding the
   boards it parked to witnesses keyed by their wake, so once the
   domain runs out of fresh groups it resumes them soonest-waking
   first.

   Ties break on insertion order (a monotonically increasing sequence
   number), so single-domain resume order is stable and reproducible.
   The structure is single-owner by design: a witness is resumed by the
   domain that parked it, never through a shared calendar. *)

type 'a t = {
  mutable keys : int array; (* packed (deadline, seq) comparisons: keys.(i)
                               orders first, seqs.(i) second *)
  mutable seqs : int array;
  mutable payloads : 'a option array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    keys = Array.make 16 max_int;
    seqs = Array.make 16 0;
    payloads = Array.make 16 None;
    size = 0;
    next_seq = 0;
  }

let grow t =
  let cap = Array.length t.keys in
  let keys = Array.make (2 * cap) max_int in
  let seqs = Array.make (2 * cap) 0 in
  let payloads = Array.make (2 * cap) None in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.payloads <- payloads

let before t i j =
  t.keys.(i) < t.keys.(j) || (t.keys.(i) = t.keys.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let k = t.keys.(i) and s = t.seqs.(i) and p = t.payloads.(i) in
  t.keys.(i) <- t.keys.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.payloads.(i) <- t.payloads.(j);
  t.keys.(j) <- k;
  t.seqs.(j) <- s;
  t.payloads.(j) <- p

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let first = (4 * i) + 1 in
  if first < t.size then begin
    let best = ref i in
    let last = min (first + 3) (t.size - 1) in
    for c = first to last do
      if before t c !best then best := c
    done;
    if !best <> i then begin
      swap t i !best;
      sift_down t !best
    end
  end

let add t ~key payload =
  if t.size = Array.length t.keys then grow t;
  let i = t.size in
  t.keys.(i) <- key;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- Some payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let pop_min t =
  if t.size = 0 then None
  else begin
    let payload = t.payloads.(0) in
    let last = t.size - 1 in
    swap t 0 last;
    t.keys.(last) <- max_int;
    t.payloads.(last) <- None;
    t.size <- last;
    if last > 0 then sift_down t 0;
    payload
  end
