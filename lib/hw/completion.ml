type refusal = Busy of string | Invalid of string | Size of string

let text (Busy s | Invalid s | Size s) = s

type 'a t = {
  sim : Sim.t;
  irq : Irq.t;
  line : int;
  mutable busy : bool;
  mutable completed : 'a option; (* waiting for the top half *)
  mutable client : 'a -> unit;
}

let create sim irq ~line ~name =
  let t =
    { sim; irq; line; busy = false; completed = None; client = ignore }
  in
  Irq.register irq ~line ~name (fun () ->
      match t.completed with
      | Some r ->
          t.completed <- None;
          t.busy <- false;
          t.client r
      | None -> ());
  Irq.enable irq ~line;
  t

let busy t = t.busy

let set_client t fn = t.client <- fn

let start t ~delay result =
  t.busy <- true;
  ignore
    (Sim.at t.sim ~delay (fun () ->
         t.completed <- Some (result ());
         Irq.set_pending t.irq ~line:t.line));
  Ok ()

let gather segs =
  (* Total length, or -1 once a segment is malformed. *)
  let total =
    List.fold_left
      (fun acc (b, off, len) ->
        if acc < 0 || off < 0 || len < 0 || off + len > Bytes.length b then -1
        else acc + len)
      0 segs
  in
  if total < 0 then None
  else begin
    let latch = Bytes.create total in
    ignore
      (List.fold_left
         (fun pos (b, off, len) ->
           Bytes.blit b off latch pos len;
           pos + len)
         0 segs);
    Some latch
  end
