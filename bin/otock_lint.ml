(* otock-lint: architecture-conformance and trust-boundary checker.

   Two passes share one CLI, one compiler-libs front end, one pragma
   grammar, one baseline format and one report schema:

     otock_lint [lint]  — the architecture pass: layering / capability /
                          unsafe-analogue rules (Tock_analysis.Rules)
                          against lint_baseline.txt;
     otock_lint check   — the dataflow pass: domain-safety and
                          allow-window-escape dataflow analyses
                          (Tock_analysis.Check) against
                          check_baseline.txt.

   Either exits non-zero when a *new* violation appears. See DESIGN.md
   ("Static analysis: otock-lint and otock-check").

   Usage:
     otock_lint [check] [--root DIR] [--json] [--baseline FILE]
                [--no-baseline] [--write-baseline] *)

type pass = {
  p_name : string;  (* report header *)
  p_json : string;  (* "pass" field in the JSON schema *)
  p_baseline : string;
  p_run : Tock_analysis.Source.file list -> Tock_analysis.Rules.result;
}

let lint_pass =
  {
    p_name = "otock-lint";
    p_json = "lint";
    p_baseline = "lint_baseline.txt";
    p_run = Tock_analysis.Rules.run;
  }

let check_pass =
  {
    p_name = "otock-check";
    p_json = "check";
    p_baseline = "check_baseline.txt";
    p_run = (fun files -> Tock_analysis.Check.run files);
  }

let () =
  (* subcommand dispatch: a leading bare word picks the pass *)
  let pass, argv =
    if Array.length Sys.argv > 1 && Sys.argv.(1) = "check" then
      ( check_pass,
        Array.append [| Sys.argv.(0) ^ " check" |]
          (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)) )
    else if Array.length Sys.argv > 1 && Sys.argv.(1) = "lint" then
      ( lint_pass,
        Array.append [| Sys.argv.(0) ^ " lint" |]
          (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)) )
    else (lint_pass, Sys.argv)
  in
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
        "FILE baseline file (default: <root>/" ^ pass.p_baseline ^ ")" );
      ("--no-baseline", Arg.Set no_baseline, " ignore the baseline: report every site");
      ( "--write-baseline",
        Arg.Set write_baseline,
        " rewrite the baseline from the current violations (ratchet)" );
    ]
  in
  (try
     Arg.parse_argv argv spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       (pass.p_name
      ^ ": architecture-conformance checker for the otock tree\n\
         subcommands: lint (default) | check")
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
      match Tock_analysis.Source.find_root () with
      | Some r -> r
      | None ->
          prerr_endline
            (pass.p_name ^ ": cannot locate the source tree (pass --root)");
          exit 2
  in
  let files = Tock_analysis.Source.scan ~root in
  if files = [] then (
    prerr_endline (pass.p_name ^ ": no sources under " ^ root);
    exit 2);
  let result = pass.p_run files in
  let bpath =
    if !baseline_path <> "" then !baseline_path
    else Filename.concat root pass.p_baseline
  in
  let baseline =
    if !no_baseline || not (Sys.file_exists bpath) then []
    else
      match
        Tock_analysis.Report.baseline_of_string
          (Tock_analysis.Source.read_file bpath)
      with
      | Ok b -> b
      | Error e ->
          prerr_endline (pass.p_name ^ ": " ^ bpath ^ ": " ^ e);
          exit 2
  in
  let d = Tock_analysis.Report.diff baseline result.Tock_analysis.Rules.violations in
  if !write_baseline then (
    let entries =
      Tock_analysis.Report.of_violations result.Tock_analysis.Rules.violations
    in
    let oc = open_out bpath in
    output_string oc (Tock_analysis.Report.baseline_to_string entries);
    close_out oc;
    Printf.printf "%s: wrote %d baseline entr%s to %s\n" pass.p_name
      (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      bpath)
  else
    print_string
      (if !as_json then
         Tock_analysis.Report.json ~pass:pass.p_json ~result ~d ()
       else Tock_analysis.Report.text ~tool:pass.p_name ~result ~d ());
  if d.Tock_analysis.Report.new_violations <> [] && not !write_baseline then
    exit 1
