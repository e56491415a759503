(** The architecture-conformance rule set (see DESIGN.md, "Trust
    taxonomy and architecture lint"). Rules are pure functions over the
    {!Dep_graph}; suppression pragmas from source comments are applied
    before results are returned. *)

type violation = {
  v_rule : string;
  v_file : string;
  v_line : int;
  v_message : string;
}

type result = {
  violations : violation list;  (** Not suppressed by any pragma. *)
  suppressed : (violation * Ast_extract.pragma) list;
      (** Allowlisted in-source, with the justifying pragma. *)
}

val all_rule_ids : string list

val run : Source.file list -> result

val suppress :
  Ast_extract.t list ->
  violation list ->
  violation list * (violation * Ast_extract.pragma) list
(** Partition violations by the pragmas of the summary for their file,
    with the shared matching rule ([allow] covers its own line and the
    next, [allow-file] the whole file, rule id ["*"] every rule). Used
    by both the architecture linter and otock-check so one grammar
    governs both tools. *)
