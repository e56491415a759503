(** otock-check orchestrator: parses every scanned [.ml]/[.mli] file
    with compiler-libs, runs the {!Domain_safety} and {!Escape}
    dataflow analyses over the kernel-dir implementations and
    {!Dead_export} over the whole tree, and folds findings into the
    same {!Rules.result} shape — and pragma grammar — as the
    architecture linter, so {!Report}'s baseline ratchet applies
    unchanged.

    Rule ids emitted: [domain-safety], [allow-escape], [dead-export],
    and [check-parse] for files compiler-libs rejects (an unparsable
    file is an unanalyzed file; the gate must not silently narrow). *)

val run : ?entry_files:string list -> Source.file list -> Rules.result
(** [entry_files] defaults to {!Taxonomy.shard_entry_files}. *)
