(** Domain-safety (race) analysis: flags module-toplevel mutable state
    reachable from the fleet's per-domain shard entry points without
    Atomic/Mutex mediation — the OCaml-5 analogue of the [static mut]
    Tock forbids in capsules.

    Reachability is interprocedural over {!Ast_extract} summaries:
    bindings are vertices, resolved value paths are edges
    ({!Dep_graph.Digraph}), and the entry set is every binding of
    {!Taxonomy.shard_entry_files}. [Bytes]/[Array] globals with no
    in-place mutation witness anywhere in the tree are read-only tables
    and not flagged. *)

type finding = { f_file : string; f_line : int; f_message : string }

val analyze : Resolve.t -> Ast_extract.t list -> finding list
(** Findings are sorted by (file, line). *)
