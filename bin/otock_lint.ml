(* otock-lint: the architecture-conformance and trust-boundary checker.

   One pass (Tock_analysis.Rules.run) parses every scanned file once,
   resolves every path through one resolver and runs every rule — the
   layering / capability / unsafe-analogue rules and the domain-safety,
   allow-window-escape and dead-export dataflow rules. It exits non-zero
   when any finding is not allowlisted by an in-source pragma carrying
   its reason. See DESIGN.md ("Static analysis: otock-lint").

   Usage:
     otock_lint [--root DIR] [--json] *)

module A = Tock_analysis

let () =
  let root = ref "" in
  let as_json = ref false in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default: auto-detect)");
      ("--json", Arg.Set as_json, " emit machine-readable JSON instead of text");
    ]
  in
  (try
     Arg.parse_argv Sys.argv spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "otock-lint: architecture-conformance checker for the otock tree"
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let root =
    if !root <> "" then !root
    else
      match A.Source.find_root () with
      | Some r -> r
      | None ->
          prerr_endline "otock-lint: cannot locate the source tree (pass --root)";
          exit 2
  in
  let files = A.Source.scan ~root in
  if files = [] then (
    prerr_endline ("otock-lint: no sources under " ^ root);
    exit 2);
  let result = A.Rules.run files in
  print_string (if !as_json then A.Report.json result else A.Report.text result);
  if result.A.Rules.violations <> [] then exit 1
