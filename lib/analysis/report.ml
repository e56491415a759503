(* Reporting: the one pass's findings as text or JSON. A finding fails
   the gate unless an in-source pragma allowlists it with its reason;
   there is no other suppression. *)

(* --- human-readable report ------------------------------------------ *)

let text (result : Rules.result) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  if result.Rules.violations = [] then pf "otock-lint: OK — no violations\n"
  else (
    pf "otock-lint: %d violation(s) (fix each, or allowlist it in source with its reason)\n\n"
      (List.length result.Rules.violations);
    List.iter
      (fun (viol : Rules.violation) ->
        pf "  %s:%d [%s]\n    %s\n" viol.Rules.v_file viol.Rules.v_line
          viol.Rules.v_rule viol.Rules.v_message)
      result.Rules.violations);
  pf "\nsummary:\n";
  pf "  sites flagged:        %d\n" (List.length result.Rules.violations);
  pf "  allowlisted inline:   %d\n" (List.length result.Rules.suppressed);
  if result.Rules.suppressed <> [] then (
    pf "\nallowlisted (justified in source):\n";
    (* One line per (file, rule) with the site count; the full
       justification lives next to the code. *)
    let keys =
      List.sort_uniq compare
        (List.map
           (fun ((viol : Rules.violation), _) ->
             (viol.Rules.v_file, viol.Rules.v_rule))
           result.Rules.suppressed)
    in
    List.iter
      (fun (file, rule) ->
        let sites =
          List.filter
            (fun ((viol : Rules.violation), _) ->
              viol.Rules.v_file = file && viol.Rules.v_rule = rule)
            result.Rules.suppressed
        in
        let note =
          match sites with
          | (_, (p : Ast_extract.pragma)) :: _
            when p.Ast_extract.pragma_note <> "" ->
              let n = p.Ast_extract.pragma_note in
              let n =
                match String.index_opt n '\n' with
                | Some k -> String.sub n 0 k ^ " ..."
                | None -> n
              in
              " — " ^ n
          | _ -> ""
        in
        pf "  %-46s [%s] x%d%s\n" file rule (List.length sites) note)
      keys);
  Buffer.contents b

(* --- JSON ------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let violation_json (viol : Rules.violation) =
  Printf.sprintf
    "{\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\"message\":\"%s\"}"
    (json_escape viol.Rules.v_rule)
    (json_escape viol.Rules.v_file)
    viol.Rules.v_line
    (json_escape viol.Rules.v_message)

let json (result : Rules.result) =
  let arr l f = "[" ^ String.concat "," (List.map f l) ^ "]" in
  Printf.sprintf
    "{\"all\":%s,\"suppressed\":%s,\"summary\":{\"sites\":%d,\"allowlisted\":%d}}\n"
    (arr result.Rules.violations violation_json)
    (arr result.Rules.suppressed (fun (viol, _) -> violation_json viol))
    (List.length result.Rules.violations)
    (List.length result.Rules.suppressed)
