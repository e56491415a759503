(* The one path resolver of otock-lint: pins a path, written in a known
   scope, to the modules and values it names. The architecture rules
   turn pinned modules into library edges (Dep_graph), Domain_safety
   turns values into reachability edges and Dead_export into uses.

   Every source file is a compilation unit. A file under a library
   directory is named through its wrapped root ([Tock.Kernel]); any
   other file is named by its directory and module ([test/Helpers]).
   A unit's shape is the union of its interface's and implementation's:
   a path that compiles only names what the interface exports, so the
   union never adds a wrong target.

   A module path resolves, innermost first, through the scope the
   walker recorded (module aliases, nested structures, [open],
   [let open], [M.(...)] and [include]), then through sibling units of
   the same directory or library, then through library roots. A head
   none of these pins may mean any unit of that name: each of them is
   an unpinned candidate, and so is everything reached through it. A
   value found through an [include] names the included definition too:
   a re-export is one export. *)

type target = { t_unit : string; t_name : string }

type 'a answer = { pinned : 'a list; unpinned : 'a list }

type unit_info = {
  u_shapes : Ast_extract.shape list;
  u_scope : Ast_extract.scope_entry list;
      (* the unit's structure-level opens: aliases and includes of its
         shape resolve in this scope *)
}

type t = {
  units : (string, unit_info) Hashtbl.t;
  by_module : (string, string list) Hashtbl.t;
      (* bare module name -> every unit of that name *)
}

type mref = Root of string | In of string * string | Opaque
(* a library root module, a unit and the dotted prefix ([""] or
   ["Accum."]) of a module inside it, or a module whose contents are
   unknown ([Int_hashtbl.Int : Hashtbl.S], a functor application):
   nothing resolves inside it, but a path that reaches it still entered
   the unit it lives in *)

let namespace path =
  match Taxonomy.library_of_path path with
  | Some l -> l.Taxonomy.lib_root_module ^ "."
  | None -> Filename.dirname path ^ "/"

let module_name path = String.capitalize_ascii (Taxonomy.module_base path)

let unit_of_path path = namespace path ^ module_name path

let create (summaries : Ast_extract.t list) =
  let units = Hashtbl.create 256 and by_module = Hashtbl.create 256 in
  List.iter
    (fun (a : Ast_extract.t) ->
      let id = unit_of_path a.Ast_extract.a_path in
      let scope =
        List.fold_left
          (fun acc (o : Ast_extract.open_decl) ->
            if o.Ast_extract.open_scoped then acc
            else Ast_extract.Open o.Ast_extract.open_path.Ast_extract.p_path :: acc)
          [] a.Ast_extract.a_opens
      in
      match Hashtbl.find_opt units id with
      | Some u ->
          Hashtbl.replace units id
            { u_shapes = a.Ast_extract.a_shape :: u.u_shapes;
              u_scope = scope @ u.u_scope }
      | None ->
          Hashtbl.replace units id
            { u_shapes = [ a.Ast_extract.a_shape ]; u_scope = scope };
          let m = module_name a.Ast_extract.a_path in
          Hashtbl.replace by_module m
            (id :: Option.value (Hashtbl.find_opt by_module m) ~default:[]))
    summaries;
  { units; by_module }

(* Aliases and includes can form cycles in broken code; no real chain
   is this deep. *)
let max_depth = 16

let has_value u name =
  List.exists (fun (s : Ast_extract.shape) -> List.mem_assoc name s.Ast_extract.s_values)
    u.u_shapes

let includes_at u prefix =
  List.concat_map
    (fun (s : Ast_extract.shape) ->
      List.filter_map
        (fun (p, path) -> if p = prefix then Some path else None)
        s.Ast_extract.s_includes)
    u.u_shapes

let namespace_of_unit unit =
  match String.rindex_opt unit '/' with
  | Some i -> String.sub unit 0 (i + 1)
  | None -> (
      match String.index_opt unit '.' with
      | Some i -> String.sub unit 0 (i + 1)
      | None -> "")

(* A module a path can mean, whether it is pinned, and the first
   compilation unit the path entered on the way to it ([None] while it
   is still in the library root or the file itself). *)
type found = { m : mref; pinned : bool; entry : string option }

(* What is reached through [f] is pinned only if [f] is, and was
   entered where [f] was. *)
let via f found =
  List.map
    (fun r ->
      { r with pinned = f.pinned && r.pinned;
        entry = (match f.entry with None -> r.entry | e -> e) })
    found

(* The modules a head name can mean once the scope is exhausted: a
   sibling unit, a library root, or else every unit of that name. *)
let global t ~unit name =
  let sibling = namespace_of_unit unit ^ name in
  if sibling <> unit && Hashtbl.mem t.units sibling then
    [ { m = In (sibling, ""); pinned = true; entry = Some sibling } ]
  else if Taxonomy.library_by_root_module name <> None then
    [ { m = Root name; pinned = true; entry = None } ]
  else
    List.map (fun id -> { m = In (id, ""); pinned = false; entry = Some id })
      (Option.value (Hashtbl.find_opt t.by_module name) ~default:[])

let rec head t ~unit scope name depth =
  match scope with
  | Ast_extract.Bound_module (n, def) :: rest when n = name ->
      of_def t ~unit rest def depth
  | Ast_extract.Open p :: rest -> (
      match
        List.concat_map (fun f -> sub t f name depth) (modpath t ~unit rest p depth)
      with
      | [] -> head t ~unit rest name depth
      | found -> found)
  | _ :: rest -> head t ~unit rest name depth
  | [] -> global t ~unit name

and of_def t ~unit scope def depth =
  match def with
  | Ast_extract.Alias p -> modpath t ~unit scope p (depth + 1)
  | Ast_extract.Nested dotted ->
      [ { m = In (unit, dotted ^ "."); pinned = true; entry = None } ]
  | Ast_extract.Opaque -> [ { m = Opaque; pinned = true; entry = None } ]

and modpath t ~unit scope path depth =
  if depth > max_depth then []
  else
    match path with
    | [] -> []
    | h :: rest ->
        List.fold_left
          (fun fs name -> List.concat_map (fun f -> sub t f name depth) fs)
          (head t ~unit scope h depth) rest

and sub t f name depth =
  match f.m with
  | Opaque -> []
  | Root r ->
      let id = r ^ "." ^ name in
      if Hashtbl.mem t.units id then
        via f [ { m = In (id, ""); pinned = true; entry = Some id } ]
      else []
  | In (id, prefix) -> (
      match Hashtbl.find_opt t.units id with
      | None -> []
      | Some u ->
          via f
            (match
               List.find_map
                 (fun (s : Ast_extract.shape) ->
                   List.assoc_opt (prefix ^ name) s.Ast_extract.s_modules)
                 u.u_shapes
             with
            | Some def -> of_def t ~unit:id u.u_scope def (depth + 1)
            | None ->
                List.concat_map
                  (fun p ->
                    List.concat_map
                      (fun f -> sub t f name (depth + 1))
                      (modpath t ~unit:id u.u_scope p (depth + 1)))
                  (includes_at u prefix)))

and value_in t f x depth =
  match f.m with
  | Root _ | Opaque -> []
  | In (id, prefix) -> (
      match Hashtbl.find_opt t.units id with
      | None -> []
      | Some u ->
          let direct =
            if has_value u (prefix ^ x) then
              [ ({ t_unit = id; t_name = prefix ^ x }, f.pinned) ]
            else []
          in
          if depth > max_depth then direct
          else
            direct
            @ List.concat_map
                (fun p ->
                  List.concat_map
                    (fun f' -> value_in t f' x (depth + 1))
                    (via f (modpath t ~unit:id u.u_scope p (depth + 1))))
                (includes_at u prefix))

let rec bare t ~unit scope x =
  match scope with
  | Ast_extract.Local n :: _ when n = x -> []
  | Ast_extract.Toplevel (n, dotted) :: _ when n = x ->
      [ ({ t_unit = unit; t_name = dotted }, true) ]
  | Ast_extract.Open p :: rest -> (
      match
        List.concat_map (fun f -> value_in t f x 0) (modpath t ~unit rest p 0)
      with
      | [] -> bare t ~unit rest x
      | found -> found)
  | _ :: rest -> bare t ~unit rest x
  | [] -> []

let answer found =
  let pinned =
    List.sort_uniq compare (List.filter_map (fun (x, p) -> if p then Some x else None) found)
  in
  let unpinned =
    List.filter_map (fun (x, p) -> if p || List.mem x pinned then None else Some x) found
  in
  { pinned; unpinned = List.sort_uniq compare unpinned }

let values t ~path (p : Ast_extract.path) =
  let unit = unit_of_path path in
  answer
    (match (p.Ast_extract.p_kind, List.rev p.Ast_extract.p_path) with
    | Ast_extract.Value, [ x ] -> bare t ~unit p.Ast_extract.p_scope x
    | Ast_extract.Value, x :: rev_mods ->
        List.concat_map
          (fun f -> value_in t f x 0)
          (modpath t ~unit p.Ast_extract.p_scope (List.rev rev_mods) 0)
    | _ -> [])

let modules t ~path (p : Ast_extract.path) =
  (* a module that has entered a unit stays in it, however much of the
     rest of the path resolves (an opaque [Int_hashtbl.Int] does not,
     whether written out or reached through an alias) *)
  let rec go found = function
    | [] -> found
    | name :: rest ->
        let entered, outside = List.partition (fun f -> f.entry <> None) found in
        entered @ go (List.concat_map (fun f -> sub t f name 0) outside) rest
  in
  let found =
    match Ast_extract.modules_of p with
    | [] -> []
    | h :: rest -> go (head t ~unit:(unit_of_path path) p.Ast_extract.p_scope h 0) rest
  in
  answer
    (List.filter_map
       (fun f ->
         match (f.entry, f.m) with
         | Some u, _ | None, (Root u | In (u, _)) -> Some (u, f.pinned)
         | None, Opaque -> None)
       found)
