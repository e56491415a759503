(* Dead-export analysis: a [val] a library interface declares that no
   other unit names.

   Exports are the values of every [lib/**/*.mli], nested signatures
   included ([Metrics.Accum.add]). Uses are the value paths of every
   scanned implementation, each resolved by {!Resolve}; tests, benches,
   binaries and examples count, and so does every unpinned candidate
   (the rule errs towards live). A use from the export's own unit (its
   [.ml]) does not make it live, but it changes the fix: the value only
   has to leave the interface. A mention in a comment or a string is
   not a path, so it is not a use. *)

type finding = { f_file : string; f_line : int; f_message : string }

let analyze resolver (summaries : Ast_extract.t list) =
  (* target -> used from outside its unit / only from inside it *)
  let uses = Hashtbl.create 1024 in
  List.iter
    (fun (a : Ast_extract.t) ->
      let unit = Resolve.unit_of_path a.Ast_extract.a_path in
      List.iter
        (fun p ->
          let found = Resolve.values resolver ~path:a.Ast_extract.a_path p in
          List.iter
            (fun (tg : Resolve.target) ->
              let outside = tg.Resolve.t_unit <> unit in
              match Hashtbl.find_opt uses tg with
              | Some true -> ()
              | _ -> Hashtbl.replace uses tg outside)
            (found.Resolve.pinned @ found.Resolve.unpinned))
        a.Ast_extract.a_paths)
    summaries;
  let findings =
    List.concat_map
      (fun (a : Ast_extract.t) ->
        let path = a.Ast_extract.a_path in
        if not (Taxonomy.starts_with "lib/" path && Filename.check_suffix path ".mli")
        then []
        else
          let unit = Resolve.unit_of_path path in
          let m = String.capitalize_ascii (Taxonomy.module_base path) in
          List.filter_map
            (fun (name, line) ->
              let fix =
                match Hashtbl.find_opt uses { Resolve.t_unit = unit; t_name = name } with
                | Some true -> None
                | Some false ->
                    Some
                      (Printf.sprintf "used only inside `%s`: drop it from `%s`'s `.mli`"
                         m m)
                | None -> Some "unused: delete it"
              in
              Option.map
                (fun fix ->
                  {
                    f_file = path;
                    f_line = line;
                    f_message = Printf.sprintf "`%s.%s` is exported but %s" m name fix;
                  })
                fix)
            a.Ast_extract.a_shape.Ast_extract.s_values)
      summaries
  in
  List.sort (fun a b -> compare (a.f_file, a.f_line) (b.f_file, b.f_line)) findings
