(** The otock-lint rule set and its one pass (see DESIGN.md, "Static
    analysis"): every scanned file is parsed once by {!Ast_extract},
    paths are pinned by one {!Resolve.t}, the architecture rules read
    the {!Dep_graph} built on it, the dataflow rules are
    {!Domain_safety}, {!Escape} and {!Dead_export}, and suppression
    pragmas from source comments are applied before results are
    returned. *)

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

val run : Source.file list -> result
(** A file compiler-libs rejects is a [lint-parse] finding: an
    unparsable file is an unanalyzed file. A pragma suppresses a finding
    of its rule id (["*"]: any) on its own line and the next, or with
    [allow-file] anywhere in its file. *)
