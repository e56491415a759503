(* otock-check: the dataflow companion to the architecture linter.

   Every pass reads sources through one compiler-libs front end
   ({!Ast_extract}) and pins value paths through one resolver
   ({!Resolve}). Where otock-lint checks the paths each file names,
   otock-check runs three whole-tree analyses over the summaries and
   parse trees:

   - {!Domain_safety}: module-toplevel mutable state reachable from the
     fleet's per-domain shard entry points without Atomic/Mutex
     ([domain-safety]), over the kernel-dir [.ml] files;
   - {!Escape}: [Subslice.t] allow-window borrows outliving their
     [with_allow] scope, and [allow_window] clones stashed in globals
     ([allow-escape]), over the same files;
   - {!Dead_export}: library interface values no other unit names
     ([dead-export]), over every scanned file.

   A file compiler-libs cannot parse is itself a finding
   ([check-parse]): an unparsable file is an unanalyzed file, and the
   gate must not silently narrow.

   Findings reuse {!Rules.violation} and the pragma grammar, so the
   {!Report} baseline/ratchet machinery applies unchanged. *)

let in_scope path =
  List.exists (fun d -> Taxonomy.starts_with (d ^ "/") path)
    Taxonomy.kernel_dirs

let run ?entry_files (files : Source.file list) : Rules.result =
  let summaries =
    List.filter_map
      (fun (f : Source.file) ->
        if f.Source.kind = Source.Dune then None
        else Some (Ast_extract.of_source ~path:f.Source.path f.Source.content))
      (List.sort
         (fun (a : Source.file) b -> compare a.Source.path b.Source.path)
         files)
  in
  let parse_violations =
    List.filter_map
      (fun (a : Ast_extract.t) ->
        if a.Ast_extract.a_parsed then None
        else
          Some
            {
              Rules.v_rule = "check-parse";
              v_file = a.Ast_extract.a_path;
              v_line = 1;
              v_message =
                "file does not parse with compiler-libs: otock-check \
                 cannot analyze it, so its findings are unknown";
            })
      summaries
  in
  let parsed = List.filter (fun a -> a.Ast_extract.a_parsed) summaries in
  let kernel_ml =
    List.filter
      (fun (a : Ast_extract.t) ->
        in_scope a.Ast_extract.a_path
        && Filename.check_suffix a.Ast_extract.a_path ".ml")
      parsed
  in
  let safety_violations =
    List.map
      (fun (f : Domain_safety.finding) ->
        {
          Rules.v_rule = "domain-safety";
          v_file = f.Domain_safety.f_file;
          v_line = f.Domain_safety.f_line;
          v_message = f.Domain_safety.f_message;
        })
      (Domain_safety.analyze ?entry_files kernel_ml)
  in
  let last_component name =
    match List.rev (String.split_on_char '.' name) with
    | x :: _ -> x
    | [] -> name
  in
  let escape_violations =
    List.concat_map
      (fun (a : Ast_extract.t) ->
        match a.Ast_extract.a_structure with
        | None -> []
        | Some st ->
            let global_names =
              List.sort_uniq compare
                (List.concat_map
                   (fun (g : Ast_extract.global) ->
                     [ g.Ast_extract.g_name;
                       last_component g.Ast_extract.g_name ])
                   a.Ast_extract.a_globals)
            in
            List.map
              (fun (e : Escape.finding) ->
                {
                  Rules.v_rule = "allow-escape";
                  v_file = e.Escape.f_file;
                  v_line = e.Escape.f_line;
                  v_message = e.Escape.f_message;
                })
              (Escape.analyze ~path:a.Ast_extract.a_path ~global_names st))
      kernel_ml
  in
  let dead_violations =
    List.map
      (fun (f : Dead_export.finding) ->
        {
          Rules.v_rule = "dead-export";
          v_file = f.Dead_export.f_file;
          v_line = f.Dead_export.f_line;
          v_message = f.Dead_export.f_message;
        })
      (Dead_export.analyze parsed)
  in
  let all =
    List.sort
      (fun (a : Rules.violation) b ->
        match compare a.Rules.v_file b.Rules.v_file with
        | 0 -> (
            match compare a.Rules.v_line b.Rules.v_line with
            | 0 -> compare a.Rules.v_rule b.Rules.v_rule
            | c -> c)
        | c -> c)
      (parse_violations @ safety_violations @ escape_violations
     @ dead_violations)
  in
  let violations, suppressed = Rules.suppress summaries all in
  { Rules.violations; suppressed }
