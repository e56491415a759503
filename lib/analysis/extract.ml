(* Stanza extraction from dune files: a small s-expression reader with
   line accounting, enough to recover each library/executable/test
   stanza's names and declared [libraries]. OCaml sources go through
   compiler-libs instead (Ast_extract). *)

type sexp = Atom of string * int | List of sexp list * int

let sexps_of_dune content =
  let n = String.length content in
  let line = ref 1 in
  let i = ref 0 in
  let bump () =
    if content.[!i] = '\n' then incr line;
    incr i
  in
  let rec read_list acc =
    if !i >= n then List.rev acc
    else
      match content.[!i] with
      | ')' ->
          bump ();
          List.rev acc
      | '(' ->
          let l0 = !line in
          bump ();
          let inner = read_list [] in
          read_list (List (inner, l0) :: acc)
      | ';' ->
          while !i < n && content.[!i] <> '\n' do bump () done;
          read_list acc
      | ' ' | '\t' | '\n' | '\r' ->
          bump ();
          read_list acc
      | '"' ->
          let l0 = !line in
          bump ();
          let s = !i in
          while !i < n && content.[!i] <> '"' do
            if content.[!i] = '\\' then bump ();
            if !i < n then bump ()
          done;
          let a = String.sub content s (!i - s) in
          if !i < n then bump ();
          read_list (Atom (a, l0) :: acc)
      | _ ->
          let l0 = !line in
          let s = !i in
          while
            !i < n
            && not
                 (List.mem content.[!i] [ '('; ')'; ' '; '\t'; '\n'; '\r'; ';' ])
          do
            bump ()
          done;
          read_list (Atom (String.sub content s (!i - s), l0) :: acc)
  in
  read_list []

type stanza = {
  stanza_kind : string;  (* "library", "executable", "executables", "test" *)
  stanza_names : string list;
  stanza_libraries : (string * int) list;  (* dep, line *)
  stanza_line : int;
}

let dune_stanzas content =
  sexps_of_dune content
  |> List.filter_map (function
       | List (Atom (kind, _) :: fields, l0)
         when List.mem kind [ "library"; "executable"; "executables"; "test" ]
         ->
           let names = ref [] in
           let libs = ref [] in
           List.iter
             (function
               | List (Atom ("name", _) :: Atom (n, _) :: _, _) ->
                   names := !names @ [ n ]
               | List (Atom ("names", _) :: rest, _) ->
                   List.iter
                     (function Atom (n, _) -> names := !names @ [ n ] | _ -> ())
                     rest
               | List (Atom ("libraries", _) :: rest, _) ->
                   List.iter
                     (function
                       | Atom (n, l) -> libs := !libs @ [ (n, l) ]
                       | _ -> ())
                     rest
               | _ -> ())
             fields;
           Some
             {
               stanza_kind = kind;
               stanza_names = !names;
               stanza_libraries = !libs;
               stanza_line = l0;
             }
       | _ -> None)
