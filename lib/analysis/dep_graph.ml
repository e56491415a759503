(* Module-reference graph: resolves the paths and opens Ast_extract
   found in each parsed file into edges between source files and otock
   libraries.

   Resolution handles the three ways a foreign module gets named in this
   tree: fully qualified (`Tock_hw.Uart.write`), as a sibling inside the
   same wrapped library (`Uart_mux.attach` from another capsule), and
   through an `open` (`open Tock` then `Kernel.schedule_upcall`).
   Anything that resolves to no otock library (stdlib, fmt, ...) carries
   no architectural meaning and produces no edge. *)

type edge = {
  edge_line : int;
  edge_lib : Taxonomy.library;  (* target *)
  edge_submodule : string option;
  edge_member : string option;
  edge_via_open : bool;
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

let module_name_of_path path =
  String.capitalize_ascii (Taxonomy.module_base path)

(* library name -> module names defined by its sources *)
let submodule_table files =
  List.filter_map
    (fun (f : Source.file) ->
      match f.Source.kind with
      | Source.Dune -> None
      | _ ->
          Option.map
            (fun (l : Taxonomy.library) ->
              (l.Taxonomy.lib_name, module_name_of_path f.Source.path))
            (Taxonomy.library_of_path f.Source.path))
    files

let resolve ~table ~own_lib ~(opens : Ast_extract.open_decl list) mods member line =
  let root = List.hd mods in
  let sub_of rest = match rest with [] -> None | s :: _ -> Some s in
  match Taxonomy.library_by_root_module root with
  | Some lib ->
      Some
        {
          edge_line = line;
          edge_lib = lib;
          edge_submodule = sub_of (List.tl mods);
          edge_member = member;
          edge_via_open = false;
        }
  | None -> (
      let in_lib lib_name = List.mem (lib_name, root) table in
      match own_lib with
      | Some (l : Taxonomy.library) when in_lib l.Taxonomy.lib_name ->
          (* Sibling module inside the same wrapped library. *)
          Some
            {
              edge_line = line;
              edge_lib = l;
              edge_submodule = Some root;
              edge_member = member;
              edge_via_open = false;
            }
      | _ ->
          List.find_map
            (fun (o : Ast_extract.open_decl) ->
              match o.Ast_extract.open_modules with
              | [ om ] -> (
                  match Taxonomy.library_by_root_module om with
                  | Some lib when in_lib lib.Taxonomy.lib_name ->
                      Some
                        {
                          edge_line = line;
                          edge_lib = lib;
                          edge_submodule = Some root;
                          edge_member = member;
                          edge_via_open = true;
                        }
                  | _ -> None)
              | _ -> None)
            opens)

let edges_of_file ~table (f : Source.file) (a : Ast_extract.t) =
  let own_lib = Taxonomy.library_of_path f.Source.path in
  let opens = a.Ast_extract.a_opens in
  let of_ref (r : Ast_extract.reference) =
    resolve ~table ~own_lib ~opens r.Ast_extract.ref_modules
      r.Ast_extract.ref_member r.Ast_extract.ref_line
  in
  (* `open Tock_hw` (or `open Tock_hw.Uart`) is itself an edge. A
     scoped `let open M in` is not: its references are still resolved
     through it above, but the expression-local import is not the file
     declaring a wholesale dependency (the userland wholesale-open rule
     keys on exactly this distinction). *)
  let of_open (o : Ast_extract.open_decl) =
    if o.Ast_extract.open_scoped then None
    else
    match o.Ast_extract.open_modules with
    | root :: rest -> (
        match Taxonomy.library_by_root_module root with
        | Some lib ->
            Some
              {
                edge_line = o.Ast_extract.open_line;
                edge_lib = lib;
                edge_submodule = (match rest with [] -> None | s :: _ -> Some s);
                edge_member = None;
                edge_via_open = true;
              }
        | None -> None)
    | [] -> None
  in
  List.filter_map of_ref a.Ast_extract.a_refs
  @ List.filter_map of_open opens

let build (files : Source.file list) =
  let table = submodule_table files in
  let nodes =
    List.filter_map
      (fun (f : Source.file) ->
        match f.Source.kind with
        | Source.Dune -> None
        | _ ->
            let a = Ast_extract.of_source ~path:f.Source.path f.Source.content in
            Some
              {
                node_path = f.Source.path;
                node_lib = Taxonomy.library_of_path f.Source.path;
                node_category = Taxonomy.categorize f.Source.path;
                node_summary = a;
                node_edges = edges_of_file ~table f a;
              })
      files
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
  type g = { size : int; mutable adj : int list array }

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
