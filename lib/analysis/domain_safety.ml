(* Domain-safety (race) analysis: module-toplevel mutable state
   reachable from the fleet's per-domain shard entry points.

   [Fleet.run] spawns one [Domain] per shard and every shard drives
   boards through the same library code. A [ref]/[Hashtbl]/[Buffer]/
   mutable-record global touched on that path is shared across domains
   with no happens-before edge — the OCaml-5 analogue of the `static
   mut` Tock forbids in capsules. [Atomic]/[Mutex] globals are
   synchronized by construction; [Bytes]/[Array] globals with no
   in-place mutation witness anywhere are read-only tables (crypto
   S-boxes, round constants) and equally safe.

   Reachability is interprocedural but name-based: every module-toplevel
   binding is a graph vertex, every resolved value reference an edge,
   and the entry set is all bindings of the shard entry files
   ({!Taxonomy.shard_entry_files}). Resolution understands wrapped-
   library roots ([Tock_core.Subslice.count]), siblings inside one
   library ([Subslice.count] from lib/core), file-local and
   nested-module bindings, and [open]s. *)

type finding = { f_file : string; f_line : int; f_message : string }

type vertex = {
  vx_file : string;
  vx_name : string;  (** dotted for nested-module bindings *)
  vx_line : int;
}

let dotted = String.concat "."

let last_component name =
  match List.rev (String.split_on_char '.' name) with
  | x :: _ -> x
  | [] -> name

(* --- vertex universe -------------------------------------------------- *)

let build_universe (summaries : Ast_extract.t list) =
  let vertices = ref [] in
  let n = ref 0 in
  let by_key : (string, int) Hashtbl.t = Hashtbl.create 512 in
  (* (file, last name component) -> vertex, for bare names defined
     under a nested module of the same file *)
  let by_last : (string * string, int) Hashtbl.t = Hashtbl.create 512 in
  (* key -> vertex; first registration wins so shadowing stays
     deterministic (summaries arrive path-sorted, bindings in source
     order) *)
  let register tbl key idx =
    if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key idx
  in
  List.iter
    (fun (a : Ast_extract.t) ->
      let modname = Dep_graph.module_name_of_path a.Ast_extract.a_path in
      let lib = Taxonomy.library_of_path a.Ast_extract.a_path in
      List.iter
        (fun (b : Ast_extract.binding) ->
          let idx = !n in
          incr n;
          vertices :=
            {
              vx_file = a.Ast_extract.a_path;
              vx_name = b.Ast_extract.b_name;
              vx_line = b.Ast_extract.b_line;
            }
            :: !vertices;
          let qualified = modname ^ "." ^ b.Ast_extract.b_name in
          register by_key (a.Ast_extract.a_path ^ ":" ^ b.Ast_extract.b_name) idx;
          register by_key qualified idx;
          (match lib with
          | Some l ->
              register by_key (l.Taxonomy.lib_root_module ^ "." ^ qualified) idx
          | None -> ());
          register by_last
            (a.Ast_extract.a_path, last_component b.Ast_extract.b_name)
            idx)
        a.Ast_extract.a_bindings)
    summaries;
  (Array.of_list (List.rev !vertices), by_key, by_last)

(* --- reference resolution --------------------------------------------- *)

let resolve ~by_key ~by_last ~(file : Ast_extract.t) (r : Ast_extract.value_ref) =
  let path = r.Ast_extract.r_path in
  let name = dotted path in
  let local key = Hashtbl.find_opt by_key (file.Ast_extract.a_path ^ ":" ^ key) in
  let try_all candidates =
    List.fold_left
      (fun acc k -> match acc with Some _ -> acc | None -> Hashtbl.find_opt by_key k)
      None candidates
  in
  match local name with
  | Some i -> Some i
  | None -> (
      (* nested-module sibling: inside [module M] a bare ref [x] is the
         binding registered as "M.x"; cheap suffix probe *)
      match
        try_all
          (name
          :: List.map
               (fun (o : Ast_extract.open_decl) ->
                 dotted o.Ast_extract.open_modules ^ "." ^ name)
               file.Ast_extract.a_opens)
      with
      | Some i -> Some i
      | None ->
          if List.length path = 1 then
            (* last resort: a bare name defined under a nested module of
               the same file *)
            Hashtbl.find_opt by_last (file.Ast_extract.a_path, name)
          else None)

(* --- analysis --------------------------------------------------------- *)

let analyze ?(entry_files = Taxonomy.shard_entry_files)
    (summaries : Ast_extract.t list) =
  let summaries =
    List.sort
      (fun (a : Ast_extract.t) b ->
        compare a.Ast_extract.a_path b.Ast_extract.a_path)
      summaries
  in
  let vertices, by_key, by_last = build_universe summaries in
  let g = Dep_graph.Digraph.make (Array.length vertices) in
  (* first referencing site per vertex, for the finding message *)
  let ref_site = Array.make (Array.length vertices) None in
  let note_site target ~src_file ~line =
    match ref_site.(target) with
    | Some (f, l) when (f, l) <= (src_file, line) -> ()
    | _ -> ref_site.(target) <- Some (src_file, line)
  in
  List.iter
    (fun (a : Ast_extract.t) ->
      List.iter
        (fun (b : Ast_extract.binding) ->
          match
            Hashtbl.find_opt by_key
              (a.Ast_extract.a_path ^ ":" ^ b.Ast_extract.b_name)
          with
          | None -> ()
          | Some src ->
              List.iter
                (fun (r : Ast_extract.value_ref) ->
                  match resolve ~by_key ~by_last ~file:a r with
                  | Some dst when dst <> src ->
                      Dep_graph.Digraph.add_edge g src dst;
                      note_site dst ~src_file:a.Ast_extract.a_path
                        ~line:r.Ast_extract.r_line
                  | _ -> ())
                b.Ast_extract.b_refs)
        a.Ast_extract.a_bindings)
    summaries;
  let entries =
    List.concat_map
      (fun (a : Ast_extract.t) ->
        if List.mem a.Ast_extract.a_path entry_files then
          List.filter_map
            (fun (b : Ast_extract.binding) ->
              Hashtbl.find_opt by_key
                (a.Ast_extract.a_path ^ ":" ^ b.Ast_extract.b_name))
            a.Ast_extract.a_bindings
        else [])
      summaries
  in
  let reach = Dep_graph.Digraph.reachable g entries in
  (* mutation witnesses, resolved once across the whole tree *)
  let witnessed = Hashtbl.create 64 in
  List.iter
    (fun (a : Ast_extract.t) ->
      List.iter
        (fun (w : Ast_extract.value_ref) ->
          match resolve ~by_key ~by_last ~file:a w with
          | Some i -> Hashtbl.replace witnessed i ()
          | None -> ())
        a.Ast_extract.a_witnesses)
    summaries;
  let findings = ref [] in
  List.iter
    (fun (a : Ast_extract.t) ->
      List.iter
        (fun (gl : Ast_extract.global) ->
          if not (Ast_extract.kind_is_synchronized gl.Ast_extract.g_kind) then
            match
              Hashtbl.find_opt by_key
                (a.Ast_extract.a_path ^ ":" ^ gl.Ast_extract.g_name)
            with
            | Some i when reach.(i) ->
                let needs_witness =
                  match gl.Ast_extract.g_kind with
                  | Ast_extract.Byte_buffer | Ast_extract.Array_buffer ->
                      not (Hashtbl.mem witnessed i)
                  | _ -> false
                in
                if not needs_witness then
                  let via =
                    match ref_site.(i) with
                    | Some (f, l) -> Printf.sprintf " (reached via %s:%d)" f l
                    | None -> ""
                  in
                  findings :=
                    {
                      f_file = a.Ast_extract.a_path;
                      f_line = gl.Ast_extract.g_line;
                      f_message =
                        Printf.sprintf
                          "module-toplevel %s `%s` is reachable from fleet \
                           shard entry points and shared across domains \
                           without Atomic/Mutex%s"
                          (Ast_extract.kind_name gl.Ast_extract.g_kind)
                          gl.Ast_extract.g_name via;
                    }
                    :: !findings
            | _ -> ())
        a.Ast_extract.a_globals)
    summaries;
  List.sort
    (fun a b -> compare (a.f_file, a.f_line) (b.f_file, b.f_line))
    !findings
