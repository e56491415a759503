(* The one OCaml front end of both analysis passes. Every .ml/.mli file
   is parsed once with compiler-libs ([Parse.implementation], or
   [Parse.interface] for an .mli) and that parse is summarized for
   otock-lint's rules and otock-check's dataflow analyses alike:

   - every dotted path the file writes (values, constructors, record
     fields and labels, types, module paths and module types), each
     applied path with its first string-literal argument, plus the
     unqualified Stdlib console writers;
   - open / include declarations; [let open M in] and [M.(...)] are
     flagged as expression-scoped;
   - attributes with their source text (docstrings excluded);
   - [otock-lint:] allowlist pragmas, read from the lexer's comment
     list;
   - for implementations, the module-toplevel *mutable-state
     inventory* (refs, Hashtbl / Buffer / Bytes / Array / Queue
     globals, records with mutable fields, and their Atomic / Mutex
     counterparts), per-binding *value references* (the raw material
     for Domain_safety's interprocedural reachability) and *mutation
     witnesses* (identifiers passed to known in-place mutators, so
     read-only lookup tables such as the crypto T-tables are not
     misreported as shared mutable state).

   Parsing never raises: a file the compiler's parser rejects comes
   back with [a_parsed = false] and the caller reports it instead of
   silently dropping the file from the analysis. *)

type mutability =
  | Ref_cell
  | Hash_table
  | Growable_buffer
  | Byte_buffer
  | Array_buffer
  | Queue_like
  | Mutable_record
  | Atomic_cell
  | Mutex_lock

let kind_name = function
  | Ref_cell -> "ref"
  | Hash_table -> "Hashtbl"
  | Growable_buffer -> "Buffer"
  | Byte_buffer -> "bytes buffer"
  | Array_buffer -> "array"
  | Queue_like -> "queue/stack"
  | Mutable_record -> "mutable record"
  | Atomic_cell -> "Atomic"
  | Mutex_lock -> "Mutex"

(* Atomic and Mutex globals are domain-safe by construction; everything
   else in the inventory is a race when shared across fleet shards. *)
let kind_is_synchronized = function
  | Atomic_cell | Mutex_lock -> true
  | _ -> false

type global = { g_name : string; g_line : int; g_kind : mutability }

type value_ref = { r_path : string list; r_line : int }

type binding = { b_name : string; b_line : int; b_refs : value_ref list }

type reference = {
  ref_modules : string list;
  ref_member : string option;
  ref_line : int;
  ref_literal : string option;
}

type open_decl = {
  open_modules : string list;
  open_line : int;
  open_scoped : bool;
}

type attribute = { attr_text : string; attr_line : int }

type pragma = {
  pragma_rule : string;
  pragma_file_level : bool;
  pragma_note : string;
  pragma_line : int;
}

type t = {
  a_path : string;
  a_parsed : bool;
  a_refs : reference list;
  a_opens : open_decl list;
  a_attributes : attribute list;
  a_pragmas : pragma list;
  a_globals : global list;
  a_bindings : binding list;
  a_witnesses : value_ref list;
      (* identifier paths passed to a known in-place mutator *)
  a_structure : Parsetree.structure option;
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let flatten (lid : Longident.t) =
  try Longident.flatten lid with _ -> []

(* --- pattern variables ------------------------------------------------ *)

let rec pattern_vars (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var v -> [ (v.Location.txt, line_of p.Parsetree.ppat_loc) ]
  | Parsetree.Ppat_alias (q, v) ->
      (v.Location.txt, line_of p.Parsetree.ppat_loc) :: pattern_vars q
  | Parsetree.Ppat_constraint (q, _) -> pattern_vars q
  | Parsetree.Ppat_tuple ps -> List.concat_map pattern_vars ps
  | _ -> []

(* --- mutability classification ---------------------------------------- *)

(* Constructors whose application makes the bound value shared mutable
   state when it sits at module toplevel. The in-place cells from
   lib/core (Take_cell & friends) are mutable records behind a module
   face. *)
let mutable_constructor path =
  match path with
  | [ "ref" ] -> Some Ref_cell
  | [ "Hashtbl"; "create" ] -> Some Hash_table
  | [ "Buffer"; "create" ] -> Some Growable_buffer
  | [ "Bytes"; ("create" | "make" | "of_string" | "init" | "copy" | "sub") ] ->
      Some Byte_buffer
  | [ "Array";
      ("make" | "init" | "create_float" | "make_matrix" | "copy" | "append"
      | "of_list" | "concat") ] ->
      Some Array_buffer
  | [ "Queue"; "create" ] | [ "Stack"; "create" ] -> Some Queue_like
  | [ "Atomic"; "make" ] -> Some Atomic_cell
  | [ "Mutex"; "create" ] -> Some Mutex_lock
  | _ -> (
      match List.rev path with
      | ("make" | "empty") :: cell :: _
        when List.mem cell
               [ "Take_cell"; "Optional_cell"; "Num_cell"; "Volatile_cell" ] ->
          Some Mutable_record
      | _ -> None)

(* Classify a toplevel binding's right-hand side. Function bodies and
   lazy thunks allocate per call / per force, so the scan does not
   descend into them; everything else is part of the value built at
   module-initialization time (Some (ref 0), tuples of tables, ...). *)
let classify_rhs ~mutable_labels (e : Parsetree.expression) =
  let found = ref None in
  let note k = if !found = None then found := Some k in
  let rec go (e : Parsetree.expression) =
    if !found <> None then ()
    else
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _
      | Parsetree.Pexp_lazy _ ->
          ()
      | Parsetree.Pexp_apply (f, args) ->
          (match f.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident lid -> (
              match mutable_constructor (flatten lid.Location.txt) with
              | Some k -> note k
              | None -> ())
          | _ -> ());
          if !found = None then (
            go f;
            List.iter (fun (_, a) -> go a) args)
      | Parsetree.Pexp_array _ -> note Array_buffer
      | Parsetree.Pexp_record (fields, base) ->
          if
            List.exists
              (fun ((l : Longident.t Location.loc), _) ->
                match List.rev (flatten l.Location.txt) with
                | f :: _ -> List.mem f mutable_labels
                | [] -> false)
              fields
          then note Mutable_record
          else (
            List.iter (fun (_, v) -> go v) fields;
            Option.iter go base)
      | Parsetree.Pexp_tuple es -> List.iter go es
      | Parsetree.Pexp_construct (_, arg) | Parsetree.Pexp_variant (_, arg) ->
          Option.iter go arg
      | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_coerce (e, _, _) ->
          go e
      | Parsetree.Pexp_let (_, vbs, body) ->
          (* let-bound intermediates feed the value: a table built
             locally and returned is still a global table *)
          List.iter (fun (vb : Parsetree.value_binding) -> go vb.Parsetree.pvb_expr) vbs;
          go body
      | Parsetree.Pexp_sequence (_, body) | Parsetree.Pexp_open (_, body) ->
          go body
      | Parsetree.Pexp_ifthenelse (_, t, f) ->
          go t;
          Option.iter go f
      | Parsetree.Pexp_match (_, cases) | Parsetree.Pexp_try (_, cases) ->
          List.iter (fun (c : Parsetree.case) -> go c.Parsetree.pc_rhs) cases
      | _ -> ()
  in
  go e;
  !found

(* --- in-place mutators ------------------------------------------------ *)

(* Functions that write through a bytes/array argument. `a.(i) <- v`
   and `Bytes.set` sugar arrive from the parser as these exact
   applications, so a syntactic witness list is complete for the
   constructs the kernel uses. *)
let mutator_path path =
  match path with
  | [ "Array"; ("set" | "fill" | "blit" | "unsafe_set" | "sort") ]
  | [ "Bytes";
      ("set" | "fill" | "blit" | "blit_string" | "unsafe_set" | "unsafe_blit")
    ] ->
      true
  | _ -> false

(* --- mutable-state inventory ------------------------------------------- *)

(* All value identifiers and mutation witnesses under [e]. *)
let scan_expr e =
  let refs = ref [] in
  let witnesses = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self (e : Parsetree.expression) ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident lid ->
              refs :=
                {
                  r_path = flatten lid.Location.txt;
                  r_line = line_of e.Parsetree.pexp_loc;
                }
                :: !refs
          | Parsetree.Pexp_apply (f, args) -> (
              match f.Parsetree.pexp_desc with
              | Parsetree.Pexp_ident lid
                when mutator_path (flatten lid.Location.txt) ->
                  List.iter
                    (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
                      match a.Parsetree.pexp_desc with
                      | Parsetree.Pexp_ident alid ->
                          witnesses :=
                            {
                              r_path = flatten alid.Location.txt;
                              r_line = line_of a.Parsetree.pexp_loc;
                            }
                            :: !witnesses
                      | _ -> ())
                    args
              | _ -> ())
          | Parsetree.Pexp_setfield (tgt, _, _) -> (
              (* writing a field of a global record is a mutation of
                 that global *)
              match tgt.Parsetree.pexp_desc with
              | Parsetree.Pexp_ident lid ->
                  witnesses :=
                    {
                      r_path = flatten lid.Location.txt;
                      r_line = line_of tgt.Parsetree.pexp_loc;
                    }
                    :: !witnesses
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.Ast_iterator.expr self e);
    }
  in
  iter.Ast_iterator.expr iter e;
  (List.rev !refs, List.rev !witnesses)

(* Globals, bindings and mutation witnesses of an implementation. *)
let inventory st =
  let globals = ref [] in
  let bindings = ref [] in
  let witnesses = ref [] in
  let mutable_labels = ref [] in
  (* [prefix] qualifies bindings inside nested modules
     ("Reference.round_trip"), so same-file references through the
     nested module resolve. *)
  let rec structure prefix items =
    List.iter (item prefix) items
  and item prefix (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_type (_, decls) ->
        List.iter
          (fun (d : Parsetree.type_declaration) ->
            match d.Parsetree.ptype_kind with
            | Parsetree.Ptype_record labels ->
                List.iter
                  (fun (l : Parsetree.label_declaration) ->
                    if l.Parsetree.pld_mutable = Asttypes.Mutable then
                      mutable_labels :=
                        l.Parsetree.pld_name.Location.txt :: !mutable_labels)
                  labels
            | _ -> ())
          decls
    | Parsetree.Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let refs, wits = scan_expr vb.Parsetree.pvb_expr in
            witnesses := List.rev_append wits !witnesses;
            let vars = pattern_vars vb.Parsetree.pvb_pat in
            List.iter
              (fun (name, vline) ->
                let name = prefix ^ name in
                bindings :=
                  { b_name = name; b_line = vline; b_refs = refs } :: !bindings;
                match
                  classify_rhs ~mutable_labels:!mutable_labels
                    vb.Parsetree.pvb_expr
                with
                | Some kind ->
                    globals :=
                      { g_name = name; g_line = vline; g_kind = kind }
                      :: !globals
                | None -> ())
              vars)
          vbs
    | Parsetree.Pstr_module mb -> (
        match
          (mb.Parsetree.pmb_name.Location.txt, mb.Parsetree.pmb_expr.Parsetree.pmod_desc)
        with
        | Some name, Parsetree.Pmod_structure st ->
            structure (prefix ^ name ^ ".") st
        | _ -> ())
    | _ -> ()
  in
  structure "" st;
  (List.rev !globals, List.rev !bindings, List.rev !witnesses)

(* --- references, opens, attributes ------------------------------------- *)

let console_writers =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "prerr_string"; "prerr_endline"; "prerr_newline";
  ]

let is_module_name s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* One walk over the parse ([walk] applies the iterator to the structure
   or signature); each list comes back in source order. *)
let references content walk =
  let open Parsetree in
  let refs = ref [] and opens = ref [] and attrs = ref [] in
  let pos (loc : Location.t) = loc.loc_start.pos_cnum in
  let add acc loc x = acc := (pos loc, x) :: !acc in
  let reference ?literal loc mods member =
    add refs loc
      { ref_modules = mods; ref_member = member; ref_line = line_of loc;
        ref_literal = literal }
  in
  (* Desugarings ([a.(i)] is [Array.get]) carry ghost locations: skip
     them. Record labels are kept: a punned one is ghost too but written
     in source. *)
  let path ?literal ?(keep_ghost = false) (lid : Longident.t Location.loc) =
    if keep_ghost || not lid.loc.loc_ghost then
      match List.rev (flatten lid.txt) with
      | last :: (_ :: _ as mods) when not (is_module_name last) ->
          reference ?literal lid.loc (List.rev mods) (Some last)
      | _ :: _ :: _ as mods -> reference ?literal lid.loc (List.rev mods) None
      | _ -> ()
  in
  let value ?literal (lid : Longident.t Location.loc) =
    match lid.txt with
    | Lident x when List.mem x console_writers && not lid.loc.loc_ghost ->
        reference ?literal lid.loc [ "Stdlib" ] (Some x)
    | _ -> path ?literal lid
  in
  let open_ ~scoped (lid : Longident.t Location.loc) =
    add opens lid.loc
      { open_modules = flatten lid.txt; open_line = line_of lid.loc;
        open_scoped = scoped }
  in
  let literal (_, a) =
    match a.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | _ -> None
  in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident f; pexp_attributes = []; _ }, args)
            ->
              value ?literal:(List.find_map literal args) f;
              List.iter (fun (_, a) -> self.expr self a) args;
              self.attributes self e.pexp_attributes
          | desc ->
              (match desc with
              | Pexp_ident lid -> value lid
              | Pexp_construct (lid, _) | Pexp_field (_, lid)
              | Pexp_setfield (_, lid, _) | Pexp_new lid ->
                  path lid
              | Pexp_record (fields, _) ->
                  List.iter (fun (l, _) -> path ~keep_ghost:true l) fields
              (* the default walk also records a dotted M.N as a
                 reference, so M.N.(x) still names M.N *)
              | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ }, _)
                ->
                  open_ ~scoped:true lid
              | _ -> ());
              default.expr self e);
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_construct (lid, _) | Ppat_type lid -> path lid
          | Ppat_record (fields, _) ->
              List.iter (fun (l, _) -> path ~keep_ghost:true l) fields
          | Ppat_open (lid, _) ->
              open_ ~scoped:true lid;
              path lid
          | _ -> ());
          default.pat self p);
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr (lid, _) | Ptyp_class (lid, _) -> path lid
          | Ptyp_package (lid, constraints) ->
              List.iter path (lid :: List.map fst constraints)
          | _ -> ());
          default.typ self t);
      module_expr =
        (fun self m ->
          (match m.pmod_desc with Pmod_ident lid -> path lid | _ -> ());
          default.module_expr self m);
      module_type =
        (fun self m ->
          (match m.pmty_desc with
          | Pmty_ident lid | Pmty_alias lid -> path lid
          | _ -> ());
          default.module_type self m);
      with_constraint =
        (fun self c ->
          (match c with
          | Pwith_type (lid, _) | Pwith_typesubst (lid, _)
          | Pwith_modtype (lid, _) | Pwith_modtypesubst (lid, _) ->
              path lid
          | Pwith_module (lid, lid') | Pwith_modsubst (lid, lid') ->
              path lid;
              path lid');
          default.with_constraint self c);
      module_substitution =
        (fun self ms ->
          path ms.pms_manifest;
          default.module_substitution self ms);
      type_extension =
        (fun self te ->
          path te.ptyext_path;
          default.type_extension self te);
      extension_constructor =
        (fun self ec ->
          (match ec.pext_kind with Pext_rebind lid -> path lid | _ -> ());
          default.extension_constructor self ec);
      (* A structure-level open or include is a declaration, not also a
         reference. *)
      structure_item =
        (fun self si ->
          match si.pstr_desc with
          | Pstr_open
              { popen_expr = { pmod_desc = Pmod_ident lid; _ };
                popen_attributes = a; _ }
          | Pstr_include
              { pincl_mod = { pmod_desc = Pmod_ident lid; _ };
                pincl_attributes = a; _ } ->
              open_ ~scoped:false lid;
              self.attributes self a
          | _ -> default.structure_item self si);
      signature_item =
        (fun self si ->
          match si.psig_desc with
          | Psig_open { popen_expr = lid; popen_attributes = a; _ }
          | Psig_include
              { pincl_mod = { pmty_desc = Pmty_ident lid; _ };
                pincl_attributes = a; _ } ->
              open_ ~scoped:false lid;
              self.attributes self a
          | _ -> default.signature_item self si);
      (* Payloads are metadata: not walked. *)
      attribute =
        (fun _ a ->
          match a.attr_name.txt with
          | "ocaml.doc" | "ocaml.text" -> ()
          | _ ->
              let l = a.attr_loc in
              add attrs l
                { attr_text = String.sub content (pos l) (l.loc_end.pos_cnum - pos l);
                  attr_line = line_of l });
    }
  in
  walk iter;
  let in_order acc =
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !acc))
  in
  (in_order refs, in_order opens, in_order attrs)

(* --- pragmas ------------------------------------------------------------ *)

(* Parse `otock-lint: allow <rule> <note>` / `allow-file <rule> <note>`
   out of a comment body; the note runs to the end of the comment. *)
let pragmas_of_comment ~line text =
  let key = "otock-lint:" in
  let tail s i = String.sub s i (String.length s - i) in
  let word s =
    match String.index_opt s ' ' with
    | Some j -> (String.sub s 0 j, String.trim (tail s j))
    | None -> (s, "")
  in
  (* Writers naturally separate rule from justification with a dash;
     drop it from the note. *)
  let drop p s =
    if Taxonomy.starts_with p s then String.trim (tail s (String.length p))
    else s
  in
  let rec find i acc =
    if i + String.length key > String.length text then List.rev acc
    else if String.sub text i (String.length key) <> key then find (i + 1) acc
    else
      let i = i + String.length key in
      let verb, rest = word (String.trim (tail text i)) in
      let rule, note = word rest in
      if (verb = "allow" || verb = "allow-file") && rule <> "" then
        find i
          ({ pragma_rule = rule; pragma_file_level = verb = "allow-file";
             pragma_note = drop "\xe2\x80\x94" (drop "--" (drop "- " note));
             pragma_line = line }
          :: acc)
      else find i acc
  in
  find 0 []

(* --- the one parse -------------------------------------------------------- *)

let of_source ~path content =
  let lexbuf = Lexing.from_string content in
  Location.init lexbuf path;
  let parse parser = try Some (parser lexbuf) with _ -> None in
  let intf, impl =
    if Filename.check_suffix path ".mli" then (parse Parse.interface, None)
    else (None, parse Parse.implementation)
  in
  (* The comment list is global lexer state: read it before anything
     else parses. Each pragma is anchored to its comment's closing line,
     so a multi-line justification directly above the flagged code
     still covers it (a line pragma suppresses its own line and the
     next). *)
  let pragmas =
    List.concat_map
      (fun (text, (loc : Location.t)) ->
        pragmas_of_comment ~line:loc.Location.loc_end.Lexing.pos_lnum text)
      (Lexer.comments ())
  in
  let a_refs, a_opens, a_attributes =
    match (intf, impl) with
    | Some sg, _ -> references content (fun it -> it.Ast_iterator.signature it sg)
    | _, Some st -> references content (fun it -> it.Ast_iterator.structure it st)
    | None, None -> ([], [], [])
  in
  let a_globals, a_bindings, a_witnesses =
    match impl with Some st -> inventory st | None -> ([], [], [])
  in
  {
    a_path = path;
    a_parsed = intf <> None || impl <> None;
    a_refs;
    a_opens;
    a_attributes;
    a_pragmas = pragmas;
    a_globals;
    a_bindings;
    a_witnesses;
    a_structure = impl;
  }
