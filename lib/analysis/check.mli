(** otock-check orchestrator: parses every in-scope [.ml] file
    (kernel dirs) with compiler-libs and runs the {!Domain_safety} and
    {!Escape} dataflow analyses, folding findings into the same
    {!Rules.result} shape — and pragma grammar — as the architecture
    linter, so {!Report}'s baseline ratchet applies unchanged.

    Rule ids emitted: [domain-safety], [allow-escape], and
    [check-parse] for files compiler-libs rejects (an unparsable file
    is an unanalyzed file; the gate must not silently narrow). *)

val run : ?entry_files:string list -> Source.file list -> Rules.result
(** [entry_files] defaults to {!Taxonomy.shard_entry_files}. *)
