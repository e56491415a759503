(* Module-reference graph: each parsed file's edges to the otock
   libraries it names, plus the dune stanza inventory.

   An edge is a module {!Resolve} pins: every path's module part (the
   whole of a module path, the components before the last of any
   other) that names a library unit, and every structure- or
   signature-level [open]/[include] of a library or one of its units
   (a scoped [let open M in] is not the file importing [M]: the paths
   under it are resolved through it instead). Naming a library root
   alone, as [Tock.(...)] or [module T = Tock] do, names none of its
   modules. An unpinned head ([Uart.x] with no [open] that brings a
   [Uart] into scope) is not an edge, and anything that resolves to no
   otock library (stdlib, fmt, ...) carries no architectural meaning. *)

type edge = {
  edge_line : int;
  edge_lib : Taxonomy.library;  (* target *)
  edge_submodule : string option;
}

type node = {
  node_path : string;
  node_lib : Taxonomy.library option;  (* owning library, if under lib/ *)
  node_category : Taxonomy.category option;
  node_summary : Ast_extract.t;
  node_edges : edge list;
}

type dune_stanza = {
  dune_path : string;  (* repo-relative path of the dune file *)
  dune_dir : string;
  stanza : Extract.stanza;
}

type t = {
  nodes : node list;
  stanzas : dune_stanza list;
  mli_paths : string list;
}

(* A unit a path enters as an edge: ["Tock.Kernel"] is [tock]'s
   [Kernel], ["Tock"] the root itself; a unit outside every library
   (["test/Helpers"]) is none. *)
let edge_of line u =
  let root, submodule =
    match String.index_opt u '.' with
    | Some i -> (String.sub u 0 i, Some (String.sub u (i + 1) (String.length u - i - 1)))
    | None -> (u, None)
  in
  Option.map
    (fun lib -> { edge_line = line; edge_lib = lib; edge_submodule = submodule })
    (Taxonomy.library_by_root_module root)

let edges r (a : Ast_extract.t) =
  let named ~root (p : Ast_extract.path) =
    (Resolve.modules r ~path:a.Ast_extract.a_path p).Resolve.pinned
    |> List.filter_map (edge_of p.Ast_extract.p_line)
    |> List.filter (fun e -> root || e.edge_submodule <> None)
    |> List.sort_uniq compare
  in
  List.concat_map (named ~root:false) a.Ast_extract.a_paths
  @ List.concat_map
      (fun (o : Ast_extract.open_decl) ->
        if o.Ast_extract.open_scoped then []
        else named ~root:true o.Ast_extract.open_path)
      a.Ast_extract.a_opens

let build r (summaries : Ast_extract.t list) (files : Source.file list) =
  let nodes =
    List.map
      (fun (a : Ast_extract.t) ->
        let path = a.Ast_extract.a_path in
        {
          node_path = path;
          node_lib = Taxonomy.library_of_path path;
          node_category = Taxonomy.categorize path;
          node_summary = a;
          node_edges = edges r a;
        })
      summaries
  in
  let stanzas =
    List.concat_map
      (fun (f : Source.file) ->
        match f.Source.kind with
        | Source.Dune ->
            Extract.dune_stanzas f.Source.content
            |> List.map (fun s ->
                   {
                     dune_path = f.Source.path;
                     dune_dir = Filename.dirname f.Source.path;
                     stanza = s;
                   })
        | _ -> [])
      files
  in
  let mli_paths =
    List.filter_map
      (fun (f : Source.file) ->
        if f.Source.kind = Source.Mli then Some f.Source.path else None)
      files
  in
  { nodes; stanzas; mli_paths }

let nodes_in_dir t dir =
  List.filter
    (fun n -> Taxonomy.starts_with (dir ^ "/") n.node_path)
    t.nodes

(* --- generic digraph -------------------------------------------------- *)

(* Small deterministic directed-graph kernel shared by the dataflow
   analyses (Domain_safety's binding-reachability worklist) and
   testable in isolation: results depend only on the edge *set*, never
   on insertion order. *)
module Digraph = struct
  type g = { size : int; adj : int list array }

  let make size =
    if size < 0 then invalid_arg "Digraph.make: negative size";
    { size; adj = Array.make size [] }

  let check g v name =
    if v < 0 || v >= g.size then invalid_arg ("Digraph." ^ name ^ ": vertex out of range")

  let add_edge g u v =
    check g u "add_edge";
    check g v "add_edge";
    if not (List.mem v g.adj.(u)) then g.adj.(u) <- v :: g.adj.(u)

  let succs g u =
    check g u "succs";
    List.sort_uniq compare g.adj.(u)

  (* BFS from the root set; output is insertion-order independent. *)
  let reachable g roots =
    let seen = Array.make (max 1 g.size) false in
    let q = Queue.create () in
    List.iter
      (fun r ->
        check g r "reachable";
        if not seen.(r) then begin
          seen.(r) <- true;
          Queue.add r q
        end)
      (List.sort_uniq compare roots);
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            Queue.add v q
          end)
        (succs g u)
    done;
    if g.size = 0 then [||] else seen

  (* Kahn's algorithm picking the smallest ready vertex first, so the
     order is canonical for a given edge set. None iff the graph has a
     directed cycle. *)
  let topo_sort g =
    let indeg = Array.make (max 1 g.size) 0 in
    for u = 0 to g.size - 1 do
      List.iter (fun v -> indeg.(v) <- indeg.(v) + 1) (succs g u)
    done;
    let module IS = Set.Make (Int) in
    let ready = ref IS.empty in
    for v = 0 to g.size - 1 do
      if indeg.(v) = 0 then ready := IS.add v !ready
    done;
    let out = ref [] in
    let n = ref 0 in
    while not (IS.is_empty !ready) do
      let v = IS.min_elt !ready in
      ready := IS.remove v !ready;
      out := v :: !out;
      incr n;
      List.iter
        (fun w ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then ready := IS.add w !ready)
        (succs g v)
    done;
    if !n = g.size then Some (List.rev !out) else None

  let has_cycle g = topo_sort g = None
end
