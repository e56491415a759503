(* Domain-safety (race) analysis: module-toplevel mutable state
   reachable from the fleet's per-domain shard entry points.

   [Fleet.run_fleet] spawns one [Domain] per shard and every shard
   drives boards through the same library code. A [ref]/[Hashtbl]/
   [Buffer]/mutable-record global touched on that path is shared across
   domains with no happens-before edge — the OCaml-5 analogue of the
   `static mut` Tock forbids in capsules. [Atomic]/[Mutex] globals are
   synchronized by construction; [Bytes]/[Array] globals with no
   in-place mutation witness anywhere are read-only tables (crypto
   S-boxes, round constants) and equally safe.

   Reachability is interprocedural: every module-toplevel binding is a
   graph vertex, every value path {!Resolve} resolves an edge, and the
   entry set is all bindings of the shard entry files
   ({!Taxonomy.shard_entry_files}). A path the resolver cannot pin to
   one binding is an edge to each binding it could mean. *)

type finding = { f_file : string; f_line : int; f_message : string }

(* --- vertex universe -------------------------------------------------- *)

(* Every module-toplevel binding is a vertex, keyed by its unit and
   dotted name: the key a {!Resolve.target} carries. *)
let vertices (summaries : Ast_extract.t list) =
  let by_key = Hashtbl.create 512 and n = ref 0 in
  List.iter
    (fun (a : Ast_extract.t) ->
      let unit = Resolve.unit_of_path a.Ast_extract.a_path in
      List.iter
        (fun (b : Ast_extract.binding) ->
          (* first registration wins, so shadowing stays deterministic *)
          let key = { Resolve.t_unit = unit; t_name = b.Ast_extract.b_name } in
          if not (Hashtbl.mem by_key key) then (
            Hashtbl.add by_key key !n;
            incr n))
        a.Ast_extract.a_bindings)
    summaries;
  (!n, by_key)

(* --- analysis --------------------------------------------------------- *)

let analyze resolver (summaries : Ast_extract.t list) =
  let summaries =
    List.sort
      (fun (a : Ast_extract.t) b ->
        compare a.Ast_extract.a_path b.Ast_extract.a_path)
      summaries
  in
  let n, by_key = vertices summaries in
  let vertex (a : Ast_extract.t) name =
    Hashtbl.find_opt by_key
      { Resolve.t_unit = Resolve.unit_of_path a.Ast_extract.a_path; t_name = name }
  in
  let targets (a : Ast_extract.t) p =
    let found = Resolve.values resolver ~path:a.Ast_extract.a_path p in
    List.filter_map (Hashtbl.find_opt by_key) (found.Resolve.pinned @ found.Resolve.unpinned)
  in
  let g = Dep_graph.Digraph.make n in
  (* first referencing site per vertex, for the finding message *)
  let ref_site = Array.make n None in
  let note_site target ~src_file ~line =
    match ref_site.(target) with
    | Some (f, l) when (f, l) <= (src_file, line) -> ()
    | _ -> ref_site.(target) <- Some (src_file, line)
  in
  List.iter
    (fun (a : Ast_extract.t) ->
      List.iter
        (fun (b : Ast_extract.binding) ->
          match vertex a b.Ast_extract.b_name with
          | None -> ()
          | Some src ->
              List.iter
                (fun (p : Ast_extract.path) ->
                  List.iter
                    (fun dst ->
                      if dst <> src then (
                        Dep_graph.Digraph.add_edge g src dst;
                        note_site dst ~src_file:a.Ast_extract.a_path
                          ~line:p.Ast_extract.p_line))
                    (targets a p))
                b.Ast_extract.b_paths)
        a.Ast_extract.a_bindings)
    summaries;
  let entries =
    List.concat_map
      (fun (a : Ast_extract.t) ->
        if List.mem a.Ast_extract.a_path Taxonomy.shard_entry_files then
          List.filter_map
            (fun (b : Ast_extract.binding) -> vertex a b.Ast_extract.b_name)
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
        (fun w -> List.iter (fun i -> Hashtbl.replace witnessed i ()) (targets a w))
        a.Ast_extract.a_witnesses)
    summaries;
  let findings = ref [] in
  List.iter
    (fun (a : Ast_extract.t) ->
      List.iter
        (fun (gl : Ast_extract.global) ->
          if not (Ast_extract.kind_is_synchronized gl.Ast_extract.g_kind) then
            match vertex a gl.Ast_extract.g_name with
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
