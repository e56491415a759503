(* The one OCaml front end of otock-lint. Every .ml/.mli file is parsed
   once with compiler-libs ([Parse.implementation], or [Parse.interface]
   for an .mli), and one [Ast_iterator] walk over that parse collects
   everything the rules read:

   - every path the file writes, once: values, constructors, record
     fields and labels, types and classes, module paths and module
     types. Each is recorded with its kind and the scope it is written
     in, so {!Resolve} can pin it; an applied value path also carries
     its first string-literal argument. The builtin indexing
     desugarings ([Array.get] for [a.(i)], [String.get],
     [Bigarray.Array1.get]) are not written in source and are skipped;
     a user-defined indexing operator ([a.%{i}]) is kept, since it
     names its definition;
   - open / include declarations; [let open M in], [M.(...)] and
     [M.(pattern)] are flagged as expression-scoped;
   - attributes with their source text (docstrings excluded);
   - for implementations, the module-toplevel *mutable-state
     inventory* (refs, Hashtbl / Buffer / Bytes / Array / Queue
     globals, records with mutable fields, and their Atomic / Mutex
     counterparts), the paths each toplevel binding writes (the raw
     material for Domain_safety's interprocedural reachability) and
     *mutation witnesses* (identifiers passed to known in-place
     mutators, so read-only lookup tables such as the crypto T-tables
     are not misreported as shared mutable state);
   - the unit's *shape*: the values, nested modules, aliases and
     includes an implementation defines or an interface exports
     (Dead_export's declarations, Resolve's lookup tables).

   [otock-lint:] allowlist pragmas come from the lexer's comment list.
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

type scope_entry =
  | Open of string list
  | Bound_module of string * module_def
  | Toplevel of string * string
  | Local of string

and module_def = Alias of string list | Nested of string | Opaque

type kind = Value | Constructor | Field | Type | Module | Module_type

type path = {
  p_path : string list;
  p_kind : kind;
  p_line : int;
  p_scope : scope_entry list;
  p_literal : string option;
}

type binding = { b_name : string; b_line : int; b_paths : path list }

type shape = {
  s_values : (string * int) list;
  s_modules : (string * module_def) list;
  s_includes : (string * string list) list;
}

type open_decl = { open_path : path; open_scoped : bool }

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
  a_paths : path list;
  a_opens : open_decl list;
  a_attributes : attribute list;
  a_pragmas : pragma list;
  a_globals : global list;
  a_bindings : binding list;
  a_witnesses : path list;
      (* identifier paths passed to a known in-place mutator *)
  a_shape : shape;
  a_structure : Parsetree.structure option;
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let flatten (lid : Longident.t) =
  try Longident.flatten lid with _ -> []

(* --- pattern variables ------------------------------------------------ *)

(* Every variable a pattern binds, with its line. *)
let pattern_vars (p : Parsetree.pattern) =
  let vars = ref [] in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      pat =
        (fun self (q : Parsetree.pattern) ->
          (match q.Parsetree.ppat_desc with
          | Parsetree.Ppat_var v | Parsetree.Ppat_alias (_, v) ->
              vars := (v.Location.txt, line_of q.Parsetree.ppat_loc) :: !vars
          | _ -> ());
          default.Ast_iterator.pat self q);
    }
  in
  iter.Ast_iterator.pat iter p;
  List.rev !vars

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
               [ "Take_cell"; "Optional_cell" ] ->
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

(* --- the walk --------------------------------------------------------------- *)

(* One walk over an implementation or an interface, tracking what each
   name means where it is written. The scope is a persistent list,
   innermost entry first: structure-level and expression-scoped opens,
   includes, module definitions and aliases, toplevel [let]s (with
   their dotted name inside the file) and expression-local variables.
   Every path is recorded once, with the scope it was written in, so
   {!Resolve} can pin it without re-walking the tree.

   The same walk builds the module-toplevel inventory: bindings with
   the paths of their right-hand side, mutable globals, mutation
   witnesses, and the unit's shape (values, nested modules, aliases and
   includes by dotted name). Definitions are recorded only where a path
   can name them: at toplevel, in named nested structures and, in an
   interface, nested signatures; not inside functors, module types or
   expressions. [walk] applies the iterator to the parse; each list
   comes back in source order. *)
let walk content run =
  let open Parsetree in
  let paths = ref [] and opens = ref [] and attrs = ref [] in
  let globals = ref [] and bindings = ref [] and witnesses = ref [] in
  let mutable_labels = ref [] in
  let s_values = ref [] and s_modules = ref [] and s_includes = ref [] in
  let scope = ref [] in
  (* dotted prefix of the named structure or signature being walked, or
     [None] where definitions are not addressable *)
  let prefix = ref (Some "") in
  (* paths of the toplevel binding being walked *)
  let current = ref None in
  let pos (loc : Location.t) = loc.loc_start.pos_cnum in
  let push entries = scope := List.rev_append entries !scope in
  let scoped entries f =
    let saved = !scope in
    push entries;
    f ();
    scope := saved
  in
  let with_prefix p f =
    let saved = !prefix in
    prefix := p;
    f ();
    prefix := saved
  in
  let unaddressable f = with_prefix None f in
  let locals p = List.map (fun (v, _) -> Local v) (pattern_vars p) in
  let make ?literal kind (lid : Longident.t Location.loc) =
    { p_path = flatten lid.txt; p_kind = kind; p_line = line_of lid.loc;
      p_scope = !scope; p_literal = literal }
  in
  (* The parser's desugarings carry ghost locations. A builtin indexing
     one ([a.(i)] is [Array.get]) names no unit here; a user-defined
     indexing operator ([a.%{i}] is [( .%{} )]) names its definition,
     and a punned record label is ghost too but written in source. *)
  let builtin_indexing = function
    | ("Array" | "String" | "Bigarray") :: _ -> true
    | _ -> false
  in
  let add ?literal ?(keep_ghost = false) kind (lid : Longident.t Location.loc) =
    if
      keep_ghost || (not lid.loc.loc_ghost)
      || (kind = Value && not (builtin_indexing (flatten lid.txt)))
    then (
      let p = make ?literal kind lid in
      paths := (pos lid.loc, p) :: !paths;
      Option.iter (fun ps -> ps := p :: !ps) !current)
  in
  let open_ ~scoped kind (lid : Longident.t Location.loc) =
    opens := (pos lid.loc, { open_path = make kind lid; open_scoped = scoped }) :: !opens
  in
  let witness (a : expression) =
    match a.pexp_desc with
    | Pexp_ident lid -> witnesses := make Value lid :: !witnesses
    | _ -> ()
  in
  let literal (_, a) =
    match a.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | _ -> None
  in
  let rec module_def (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident lid -> Alias (flatten lid.Location.txt)
    | Pmod_constraint (me, _) -> module_def me
    | _ -> Opaque
  in
  let rec is_structure (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure _ -> true
    | Pmod_constraint (me, _) -> is_structure me
    | _ -> false
  in
  let default = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident f; _ }, args)
      when mutator_path (flatten f.txt) ->
        List.iter (fun (_, a) -> witness a) args
    | Pexp_setfield (target, _, _) -> witness target
    | _ -> ());
    let attributes () = self.Ast_iterator.attributes self e.pexp_attributes in
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident f; pexp_attributes = []; _ }, args) ->
        add ?literal:(List.find_map literal args) Value f;
        List.iter (fun (_, a) -> self.Ast_iterator.expr self a) args;
        attributes ()
    | Pexp_let (flag, vbs, body) ->
        let bound = List.concat_map (fun vb -> locals vb.pvb_pat) vbs in
        if flag = Asttypes.Recursive then
          scoped bound (fun () ->
              List.iter (self.Ast_iterator.value_binding self) vbs;
              self.Ast_iterator.expr self body)
        else (
          List.iter (self.Ast_iterator.value_binding self) vbs;
          scoped bound (fun () -> self.Ast_iterator.expr self body));
        attributes ()
    | Pexp_fun (_, default_arg, p, body) ->
        Option.iter (self.Ast_iterator.expr self) default_arg;
        self.Ast_iterator.pat self p;
        scoped (locals p) (fun () -> self.Ast_iterator.expr self body);
        attributes ()
    | Pexp_for (p, lo, hi, _, body) ->
        self.Ast_iterator.expr self lo;
        self.Ast_iterator.expr self hi;
        scoped (locals p) (fun () -> self.Ast_iterator.expr self body);
        attributes ()
    | Pexp_letop { let_; ands; body } ->
        let ops = let_ :: ands in
        List.iter
          (fun (b : binding_op) ->
            self.Ast_iterator.pat self b.pbop_pat;
            self.Ast_iterator.expr self b.pbop_exp)
          ops;
        scoped
          (List.concat_map (fun (b : binding_op) -> locals b.pbop_pat) ops)
          (fun () -> self.Ast_iterator.expr self body);
        attributes ()
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident lid; _ }; popen_attributes; _ }, body)
      ->
        add Module lid;
        open_ ~scoped:true Module lid;
        self.Ast_iterator.attributes self popen_attributes;
        scoped [ Open (flatten lid.txt) ] (fun () -> self.Ast_iterator.expr self body);
        attributes ()
    | Pexp_letmodule (name, me, body) ->
        unaddressable (fun () -> self.Ast_iterator.module_expr self me);
        let entries =
          match name.txt with Some n -> [ Bound_module (n, module_def me) ] | None -> []
        in
        scoped entries (fun () -> self.Ast_iterator.expr self body);
        attributes ()
    | desc ->
        (match desc with
        | Pexp_ident lid -> add Value lid
        | Pexp_construct (lid, _) -> add Constructor lid
        | Pexp_field (_, lid) | Pexp_setfield (_, lid, _) -> add Field lid
        | Pexp_new lid -> add Type lid
        | Pexp_record (fields, _) ->
            List.iter (fun (l, _) -> add ~keep_ghost:true Field l) fields
        | _ -> ());
        default.Ast_iterator.expr self e
  in
  let pat self p =
    match p.ppat_desc with
    | Ppat_open (lid, inner) ->
        add Module lid;
        open_ ~scoped:true Module lid;
        self.Ast_iterator.attributes self p.ppat_attributes;
        scoped [ Open (flatten lid.txt) ] (fun () -> self.Ast_iterator.pat self inner)
    | desc ->
        (match desc with
        | Ppat_construct (lid, _) -> add Constructor lid
        | Ppat_type lid -> add Type lid
        | Ppat_record (fields, _) ->
            List.iter (fun (l, _) -> add ~keep_ghost:true Field l) fields
        | _ -> ());
        default.Ast_iterator.pat self p
  in
  let case self c =
    scoped (locals c.pc_lhs) (fun () -> default.Ast_iterator.case self c)
  in
  let toplevel_binding self (vb : value_binding) =
    match !prefix with
    | None -> self.Ast_iterator.value_binding self vb
    | Some pre ->
        let ps = ref [] in
        current := Some ps;
        unaddressable (fun () -> self.Ast_iterator.value_binding self vb);
        current := None;
        let b_paths = List.rev !ps in
        List.iter
          (fun (name, line) ->
            let name = pre ^ name in
            bindings := { b_name = name; b_line = line; b_paths } :: !bindings;
            s_values := (name, line) :: !s_values;
            match classify_rhs ~mutable_labels:!mutable_labels vb.pvb_expr with
            | Some kind ->
                globals := { g_name = name; g_line = line; g_kind = kind } :: !globals
            | None -> ())
          (pattern_vars vb.pvb_pat)
  in
  (* a definition a path can name, or a local one *)
  let defined name =
    match !prefix with Some pre -> Toplevel (name, pre ^ name) | None -> Local name
  in
  let structure_item self si =
    match si.pstr_desc with
    | Pstr_value (flag, vbs) ->
        let bound =
          List.concat_map
            (fun vb -> List.map (fun (v, _) -> defined v) (pattern_vars vb.pvb_pat))
            vbs
        in
        if flag = Asttypes.Recursive then push bound;
        List.iter (toplevel_binding self) vbs;
        if flag = Asttypes.Nonrecursive then push bound
    | Pstr_primitive vd ->
        let name = vd.pval_name.txt in
        Option.iter
          (fun pre -> s_values := (pre ^ name, line_of si.pstr_loc) :: !s_values)
          !prefix;
        default.Ast_iterator.structure_item self si;
        push [ defined name ]
    | Pstr_type (_, decls) ->
        List.iter
          (fun d ->
            match d.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun l ->
                    if l.pld_mutable = Asttypes.Mutable then
                      mutable_labels := l.pld_name.txt :: !mutable_labels)
                  labels
            | _ -> ())
          decls;
        default.Ast_iterator.structure_item self si
    (* A structure-level open or include is a declaration, not also a
       path. *)
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; popen_attributes = a; _ }
      ->
        open_ ~scoped:false Module lid;
        self.Ast_iterator.attributes self a;
        push [ Open (flatten lid.txt) ]
    | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident lid; _ }; pincl_attributes = a; _ }
      ->
        let path = flatten lid.txt in
        Option.iter (fun pre -> s_includes := (pre, path) :: !s_includes) !prefix;
        open_ ~scoped:false Module lid;
        self.Ast_iterator.attributes self a;
        push [ Open path ]
    | Pstr_module ({ pmb_name = { txt = Some name; _ }; pmb_expr = me; _ } as mb) ->
        let def =
          match !prefix with
          | Some pre when is_structure me ->
              with_prefix (Some (pre ^ name ^ ".")) (fun () ->
                  self.Ast_iterator.module_binding self mb);
              Nested (pre ^ name)
          | _ ->
              unaddressable (fun () -> self.Ast_iterator.module_binding self mb);
              module_def me
        in
        Option.iter (fun pre -> s_modules := (pre ^ name, def) :: !s_modules) !prefix;
        push [ Bound_module (name, def) ]
    | Pstr_recmodule _ ->
        unaddressable (fun () -> default.Ast_iterator.structure_item self si)
    | _ -> default.Ast_iterator.structure_item self si
  in
  let signature_item self si =
    match si.psig_desc with
    | Psig_value vd ->
        Option.iter
          (fun pre ->
            s_values := (pre ^ vd.pval_name.txt, line_of si.psig_loc) :: !s_values)
          !prefix;
        default.Ast_iterator.signature_item self si
    | Psig_module ({ pmd_name = { txt = Some name; _ }; pmd_type = mty; _ } as md) ->
        let def =
          match (mty.pmty_desc, !prefix) with
          | Pmty_signature sg, Some pre ->
              with_prefix (Some (pre ^ name ^ ".")) (fun () ->
                  self.Ast_iterator.signature self sg);
              self.Ast_iterator.attributes self md.pmd_attributes;
              Nested (pre ^ name)
          | (Pmty_alias lid | Pmty_typeof { pmod_desc = Pmod_ident lid; _ }), _ ->
              self.Ast_iterator.module_declaration self md;
              Alias (flatten lid.txt)
          | _ ->
              self.Ast_iterator.module_declaration self md;
              Opaque
        in
        Option.iter (fun pre -> s_modules := (pre ^ name, def) :: !s_modules) !prefix;
        push [ Bound_module (name, def) ]
    | Psig_include
        { pincl_mod = { pmty_desc = Pmty_typeof { pmod_desc = Pmod_ident lid; _ }; _ }; _ }
      ->
        Option.iter
          (fun pre -> s_includes := (pre, flatten lid.txt) :: !s_includes)
          !prefix;
        default.Ast_iterator.signature_item self si
    | Psig_include { pincl_mod = { pmty_desc = Pmty_signature sg; _ }; pincl_attributes = a; _ }
      ->
        self.Ast_iterator.signature self sg;
        self.Ast_iterator.attributes self a
    | Psig_include { pincl_mod = { pmty_desc = Pmty_ident lid; _ }; pincl_attributes = a; _ }
      ->
        open_ ~scoped:false Module_type lid;
        self.Ast_iterator.attributes self a
    | Psig_open { popen_expr = lid; popen_attributes = a; _ } ->
        open_ ~scoped:false Module lid;
        self.Ast_iterator.attributes self a;
        push [ Open (flatten lid.txt) ]
    | _ -> default.Ast_iterator.signature_item self si
  in
  let iter =
    {
      default with
      expr;
      pat;
      case;
      structure_item;
      signature_item;
      structure =
        (fun self items ->
          scoped [] (fun () -> List.iter (self.Ast_iterator.structure_item self) items));
      signature =
        (fun self items ->
          scoped [] (fun () -> List.iter (self.Ast_iterator.signature_item self) items));
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr (lid, _) | Ptyp_class (lid, _) -> add Type lid
          | Ptyp_package (lid, constraints) ->
              add Module_type lid;
              List.iter (fun (l, _) -> add Type l) constraints
          | _ -> ());
          default.Ast_iterator.typ self t);
      module_expr =
        (fun self m ->
          (match m.pmod_desc with Pmod_ident lid -> add Module lid | _ -> ());
          default.Ast_iterator.module_expr self m);
      (* a module type defines nothing a path can name *)
      module_type =
        (fun self m ->
          (match m.pmty_desc with
          | Pmty_ident lid -> add Module_type lid
          | Pmty_alias lid -> add Module lid
          | _ -> ());
          unaddressable (fun () -> default.Ast_iterator.module_type self m));
      with_constraint =
        (fun self c ->
          (match c with
          | Pwith_type (lid, _) | Pwith_typesubst (lid, _) -> add Type lid
          | Pwith_modtype (lid, _) | Pwith_modtypesubst (lid, _) -> add Module_type lid
          | Pwith_module (lid, lid') | Pwith_modsubst (lid, lid') ->
              add Module lid;
              add Module lid');
          default.Ast_iterator.with_constraint self c);
      module_substitution =
        (fun self ms ->
          add Module ms.pms_manifest;
          default.Ast_iterator.module_substitution self ms);
      type_extension =
        (fun self te ->
          add Type te.ptyext_path;
          default.Ast_iterator.type_extension self te);
      extension_constructor =
        (fun self ec ->
          (match ec.pext_kind with Pext_rebind lid -> add Constructor lid | _ -> ());
          default.Ast_iterator.extension_constructor self ec);
      (* Payloads are metadata: not walked. *)
      attribute =
        (fun _ a ->
          match a.attr_name.txt with
          | "ocaml.doc" | "ocaml.text" -> ()
          | _ ->
              let l = a.attr_loc in
              attrs :=
                ( pos l,
                  { attr_text = String.sub content (pos l) (l.loc_end.pos_cnum - pos l);
                    attr_line = line_of l } )
                :: !attrs);
    }
  in
  run iter;
  let in_order acc =
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !acc))
  in
  {
    a_path = "";
    a_parsed = true;
    a_paths = in_order paths;
    a_opens = in_order opens;
    a_attributes = in_order attrs;
    a_pragmas = [];
    a_globals = List.rev !globals;
    a_bindings = List.rev !bindings;
    a_witnesses = List.rev !witnesses;
    a_shape =
      { s_values = List.rev !s_values; s_modules = List.rev !s_modules;
        s_includes = List.rev !s_includes };
    a_structure = None;
  }

(* --- pragmas ------------------------------------------------------------ *)

(* The pragmas of a comment body: each is the [otock-lint:] key, then
   [allow] or [allow-file], a rule id and a note that runs to the end of
   the comment. *)
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

let modules_of p =
  match (p.p_kind, List.rev p.p_path) with
  | Module, _ -> p.p_path
  | _, _ :: rev_mods -> List.rev rev_mods
  | _, [] -> []

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
  let a =
    match (intf, impl) with
    | Some sg, _ -> walk content (fun it -> it.Ast_iterator.signature it sg)
    | _, Some st -> walk content (fun it -> it.Ast_iterator.structure it st)
    | None, None -> walk content ignore
  in
  { a with a_path = path; a_parsed = intf <> None || impl <> None;
    a_pragmas = pragmas; a_structure = impl }
