(* otock-check: the dataflow companion to the architecture linter.

   Both passes read sources through one compiler-libs front end
   ({!Ast_extract}). Where otock-lint checks the paths each file names,
   otock-check runs two interprocedural dataflow passes over the
   summaries and parse trees of the kernel-dir [.ml] files:

   - {!Domain_safety}: module-toplevel mutable state reachable from the
     fleet's per-domain shard entry points without Atomic/Mutex
     ([domain-safety]);
   - {!Escape}: [Subslice.t] allow-window borrows outliving their
     [with_allow] scope, and [allow_window] clones stashed in globals
     ([allow-escape]).

   A file compiler-libs cannot parse is itself a finding
   ([check-parse]): an unparsable file is an unanalyzed file, and the
   gate must not silently narrow.

   Findings reuse {!Rules.violation} and the pragma grammar, so the
   {!Report} baseline/ratchet machinery applies unchanged. *)

let in_scope path =
  List.exists (fun d -> Taxonomy.starts_with (d ^ "/") path)
    Taxonomy.kernel_dirs

let run ?entry_files (files : Source.file list) : Rules.result =
  let ml_files =
    List.filter
      (fun (f : Source.file) ->
        f.Source.kind = Source.Ml && in_scope f.Source.path)
      files
  in
  let ml_files =
    List.sort
      (fun (a : Source.file) b -> compare a.Source.path b.Source.path)
      ml_files
  in
  let summaries =
    List.map
      (fun (f : Source.file) ->
        Ast_extract.of_source ~path:f.Source.path f.Source.content)
      ml_files
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
  let safety_violations =
    List.map
      (fun (f : Domain_safety.finding) ->
        {
          Rules.v_rule = "domain-safety";
          v_file = f.Domain_safety.f_file;
          v_line = f.Domain_safety.f_line;
          v_message = f.Domain_safety.f_message;
        })
      (Domain_safety.analyze ?entry_files parsed)
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
      summaries
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
      (parse_violations @ safety_violations @ escape_violations)
  in
  let violations, suppressed = Rules.suppress summaries all in
  { Rules.violations; suppressed }
