(* Reporting and the ratchet baseline.

   The baseline file grandfathers pre-existing violations as (rule,
   file, count) triples in a diff-friendly line format. The gate fails
   only when a (rule, file) key *exceeds* its baselined count — new
   violations — and separately reports keys that dropped below it, so
   the baseline can be ratcheted down (`otock_lint --write-baseline`)
   but never silently up. *)

type entry = { b_rule : string; b_file : string; b_count : int }

type diff = {
  new_violations : Rules.violation list;
      (* all sites of any (rule,file) key whose count exceeds baseline *)
  grandfathered : int;
  stale : entry list;  (* baselined count no longer reached: ratchet down *)
}

(* --- (rule, file) aggregation --------------------------------------- *)

let key_counts (violations : Rules.violation list) =
  List.fold_left
    (fun acc (viol : Rules.violation) ->
      let k = (viol.Rules.v_rule, viol.Rules.v_file) in
      match List.assoc_opt k acc with
      | Some n -> (k, n + 1) :: List.remove_assoc k acc
      | None -> (k, 1) :: acc)
    [] violations
  |> List.sort compare

let of_violations violations =
  List.map
    (fun ((r, f), n) -> { b_rule = r; b_file = f; b_count = n })
    (key_counts violations)

let diff (baseline : entry list) (violations : Rules.violation list) =
  let counts = key_counts violations in
  let base_count r f =
    match
      List.find_opt (fun e -> e.b_rule = r && e.b_file = f) baseline
    with
    | Some e -> e.b_count
    | None -> 0
  in
  let new_violations =
    List.filter
      (fun (viol : Rules.violation) ->
        let k = (viol.Rules.v_rule, viol.Rules.v_file) in
        let c = List.assoc k counts in
        c > base_count viol.Rules.v_rule viol.Rules.v_file)
      violations
  in
  let grandfathered =
    List.fold_left
      (fun acc ((r, f), c) -> acc + min c (base_count r f))
      0 counts
  in
  let stale =
    List.filter_map
      (fun e ->
        let c =
          match List.assoc_opt (e.b_rule, e.b_file) counts with
          | Some c -> c
          | None -> 0
        in
        if c < e.b_count then
          Some { e with b_count = e.b_count - c } (* surplus *)
        else None)
      baseline
  in
  { new_violations; grandfathered; stale }

(* --- baseline file format ------------------------------------------- *)

let baseline_to_string entries =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "# otock-lint baseline: grandfathered violations as `count rule file`.\n\
     # New violations fail the gate; regenerate with `otock_lint \
     --write-baseline`\n\
     # only when a line here has genuinely been fixed (ratchet down).\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %s\n" e.b_count e.b_rule e.b_file))
    (List.sort compare entries);
  Buffer.contents b

let baseline_of_string s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line with
           | [ count; rule; file ] -> (
               match int_of_string_opt count with
               | Some n when n > 0 ->
                   Some (Ok { b_rule = rule; b_file = file; b_count = n })
               | _ -> Some (Error ("bad baseline count: " ^ line)))
           | _ -> Some (Error ("bad baseline line: " ^ line)))
  |> List.fold_left
       (fun acc item ->
         match (acc, item) with
         | Error e, _ -> Error e
         | Ok _, Error e -> Error e
         | Ok es, Ok e -> Ok (es @ [ e ]))
       (Ok [])

(* --- human-readable report ------------------------------------------ *)

let text ~(result : Rules.result) ~(d : diff) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  if d.new_violations = [] then
    pf "otock-lint: OK — no new violations\n"
  else (
    pf "otock-lint: %d NEW violation(s) (not covered by baseline)\n\n"
      (List.length d.new_violations);
    List.iter
      (fun (viol : Rules.violation) ->
        pf "  %s:%d [%s]\n    %s\n" viol.Rules.v_file viol.Rules.v_line
          viol.Rules.v_rule viol.Rules.v_message)
      d.new_violations);
  pf "\nsummary:\n";
  pf "  sites flagged:        %d\n" (List.length result.Rules.violations);
  pf "  grandfathered:        %d (in baseline)\n" d.grandfathered;
  pf "  allowlisted inline:   %d\n" (List.length result.Rules.suppressed);
  pf "  new:                  %d\n" (List.length d.new_violations);
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
  if d.stale <> [] then (
    pf "\nbaseline is stale (violations fixed — ratchet it down):\n";
    List.iter
      (fun e -> pf "  -%d %s %s\n" e.b_count e.b_rule e.b_file)
      d.stale);
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

let json ~(result : Rules.result) ~(d : diff) =
  let arr l f = "[" ^ String.concat "," (List.map f l) ^ "]" in
  Printf.sprintf
    "{\"new\":%s,\"all\":%s,\"suppressed\":%s,\"summary\":{\"sites\":%d,\"grandfathered\":%d,\"allowlisted\":%d,\"new\":%d,\"stale\":%d}}\n"
    (arr d.new_violations violation_json)
    (arr result.Rules.violations violation_json)
    (arr result.Rules.suppressed (fun (viol, _) -> violation_json viol))
    (List.length result.Rules.violations)
    d.grandfathered
    (List.length result.Rules.suppressed)
    (List.length d.new_violations)
    (List.length d.stale)
