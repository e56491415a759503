(** The module-reference graph: source files with their parsed
    {!Ast_extract} summary and their edges to otock libraries — the
    modules {!Resolve} pins for each path and each non-scoped
    [open]/[include] — plus the dune stanza inventory. *)

type edge = {
  edge_line : int;
  edge_lib : Taxonomy.library;
  edge_submodule : string option;
      (** [Tock.Kernel.x] gives [Some "Kernel"]; a bare [open Tock]
          gives [None]. *)
}

type node = {
  node_path : string;
  node_lib : Taxonomy.library option;
  node_category : Taxonomy.category option;
  node_summary : Ast_extract.t;
  node_edges : edge list;
}

type dune_stanza = {
  dune_path : string;
  dune_dir : string;
  stanza : Extract.stanza;
}

type t = {
  nodes : node list;
  stanzas : dune_stanza list;
  mli_paths : string list;
}

val build : Resolve.t -> Ast_extract.t list -> Source.file list -> t
(** Nodes for the given summaries, resolved with the given resolver;
    stanzas and interface paths from the files. *)

val nodes_in_dir : t -> string -> node list

(** Deterministic directed-graph kernel over integer vertices, shared
    by the dataflow analyses ({!Domain_safety}'s binding-reachability
    worklist). Every result depends only on the edge {e set}, never on
    edge insertion order. *)
module Digraph : sig
  type g

  val make : int -> g
  (** [make n] is an edgeless graph over vertices [0 .. n-1]. *)

  val add_edge : g -> int -> int -> unit
  (** Idempotent: parallel edges collapse. *)

  val succs : g -> int -> int list
  (** Sorted, deduplicated successors. *)

  val reachable : g -> int list -> bool array
  (** Transitive closure of the root set (roots included). *)

  val topo_sort : g -> int list option
  (** A topological order picking the smallest ready vertex first
      (canonical for a given edge set), or [None] iff the graph has a
      directed cycle. *)

  val has_cycle : g -> bool
end
