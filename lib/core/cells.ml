module Cell = struct
  type 'a t = { mutable v : 'a }

  let make v = { v }

  let get t = t.v

  let set t v = t.v <- v

  let replace t v =
    let old = t.v in
    t.v <- v;
    old

  let update t f = t.v <- f t.v
end

module Optional_cell = struct
  type 'a t = { mutable v : 'a option }

  let empty () = { v = None }

  let is_some t = t.v <> None

  let get t = t.v

  let set t v = t.v <- Some v

  let take t =
    let old = t.v in
    t.v <- None;
    old

  let map t f = Option.map f t.v

  let get_or t default = Option.value t.v ~default
end

module Take_cell = struct
  type 'a t = { mutable v : 'a option; mutable in_map : bool }

  let refusals = ref 0

  let make v = { v = Some v; in_map = false }

  let empty () = { v = None; in_map = false }

  let is_none t = t.v = None

  let take t =
    let old = t.v in
    t.v <- None;
    old

  let put t v =
    match t.v with
    | None -> t.v <- Some v
    | Some _ -> invalid_arg "Take_cell.put: cell already full"

  let replace t v =
    let old = t.v in
    t.v <- Some v;
    old

  let map t f =
    match t.v with
    | None ->
        if t.in_map then incr refusals;
        None
    | Some v ->
        t.v <- None;
        t.in_map <- true;
        let restore () =
          t.in_map <- false;
          (* Re-fill only if the closure did not install a new value. *)
          match t.v with None -> t.v <- Some v | Some _ -> ()
        in
        let r =
          try f v
          with e ->
            restore ();
            raise e
        in
        restore ();
        Some r

  let reentrancy_refusals () = !refusals
end
