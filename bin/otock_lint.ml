(* otock-lint: the architecture-conformance and trust-boundary checker.

   One pass (Tock_analysis.Rules.run) parses every scanned file once,
   resolves every path through one resolver and runs every rule — the
   layering / capability / unsafe-analogue rules and the domain-safety,
   allow-window-escape and dead-export dataflow rules — against one
   ratchet baseline, lint_baseline.txt. It exits non-zero when a *new*
   violation appears. See DESIGN.md ("Static analysis: otock-lint").

   Usage:
     otock_lint [--root DIR] [--json] [--baseline FILE]
                [--no-baseline] [--write-baseline] *)

module A = Tock_analysis

let () =
  let root = ref "" in
  let as_json = ref false in
  let baseline_path = ref "" in
  let no_baseline = ref false in
  let write_baseline = ref false in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default: auto-detect)");
      ("--json", Arg.Set as_json, " emit machine-readable JSON instead of text");
      ( "--baseline",
        Arg.Set_string baseline_path,
        "FILE baseline file (default: <root>/lint_baseline.txt)" );
      ("--no-baseline", Arg.Set no_baseline, " ignore the baseline: report every site");
      ( "--write-baseline",
        Arg.Set write_baseline,
        " rewrite the baseline from the current violations (ratchet)" );
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
  let bpath =
    if !baseline_path <> "" then !baseline_path
    else Filename.concat root "lint_baseline.txt"
  in
  let baseline =
    if !no_baseline || not (Sys.file_exists bpath) then []
    else
      match A.Report.baseline_of_string (A.Source.read_file bpath) with
      | Ok b -> b
      | Error e ->
          prerr_endline ("otock-lint: " ^ bpath ^ ": " ^ e);
          exit 2
  in
  let d = A.Report.diff baseline result.A.Rules.violations in
  if !write_baseline then (
    let entries = A.Report.of_violations result.A.Rules.violations in
    let oc = open_out bpath in
    output_string oc (A.Report.baseline_to_string entries);
    close_out oc;
    Printf.printf "otock-lint: wrote %d baseline entr%s to %s\n"
      (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      bpath)
  else
    print_string
      (if !as_json then A.Report.json ~result ~d else A.Report.text ~result ~d);
  if d.A.Report.new_violations <> [] && not !write_baseline then exit 1
