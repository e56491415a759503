type 'a entry = { value : 'a; mutable entered : bool }

type 'a t = {
  gid : int;
  g_name : string;
  size : int;
  init : unit -> 'a;
  key : 'a entry Univ.key;
}

(* Atomic: grants are created and entered from whichever domain runs the
   owning board (the fleet runner shards boards across domains). *)
let next_gid = Atomic.make 0

let refused = Atomic.make 0

let create ~cap:_ ~name ~size_bytes ~init =
  if size_bytes < 0 then invalid_arg "Grant.create";
  let gid = 1 + Atomic.fetch_and_add next_gid 1 in
  { gid; g_name = name; size = size_bytes; init; key = Univ.new_key () }

let name t = t.g_name

let lookup t proc =
  match Int_hashtbl.Int.find_opt (Process.grant_table proc) t.gid with
  | Some packed -> Univ.project t.key packed
  | None -> None

let enter t proc f =
  let entry =
    match lookup t proc with
    | Some e -> Some e
    | None ->
        if Process.allocate_grant_bytes proc t.size then begin
          let e = { value = t.init (); entered = false } in
          Int_hashtbl.Int.replace (Process.grant_table proc) t.gid
            (Univ.inject t.key e);
          Some e
        end
        else None
  in
  match entry with
  | None -> Error Error.NOMEM
  | Some e ->
      if e.entered then begin
        Atomic.incr refused;
        Error Error.ALREADY
      end
      else begin
        e.entered <- true;
        Process.note_grant_enter proc;
        let o = Process.obs proc in
        let tr = o.Tock_obs.Ctx.trace in
        if Tock_obs.Trace.on tr then
          Tock_obs.Trace.emit tr
            ~ts:(Tock_obs.Ctx.now o)
            ~tid:(Process.id proc) Tock_obs.Trace.Grant_enter
            Tock_obs.Trace.Instant ~arg:t.gid ~text:t.g_name;
        let finish () = e.entered <- false in
        let r =
          try f e.value
          with exn ->
            finish ();
            raise exn
        in
        finish ();
        Ok r
      end

let is_allocated t proc = lookup t proc <> None

(* Thaw support: allocate the instance without entering it (no
   note_grant_enter, no trace) — a frozen board's grant-enter counters
   are restored wholesale afterwards, so the allocation must not count
   as activity. Grant region accounting still applies. *)
let preallocate t proc =
  match lookup t proc with
  | Some _ -> true
  | None ->
      if Process.allocate_grant_bytes proc t.size then begin
        Int_hashtbl.Int.replace (Process.grant_table proc) t.gid
          (Univ.inject t.key { value = t.init (); entered = false });
        true
      end
      else false

(* Freeze support: read the instance without allocating, entering, or
   touching the grant-enter counters/trace — witness saves must not
   perturb the state they are recording. *)
let peek t proc = Option.map (fun e -> e.value) (lookup t proc)

let reentries_refused () = Atomic.get refused
