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
     misreported as shared mutable state), each recorded with the
     scope it was written in so {!Resolve} can pin it;
   - the unit's *shape*: the values, nested modules, aliases and
     includes an implementation defines or an interface exports
     (Dead_export's declarations, Resolve's lookup tables).

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
  | Module of string * module_def
  | Value of string * string
  | Local of string

and module_def = Alias of string list | Nested of string | Opaque

type value_ref = {
  r_path : string list;
  r_line : int;
  r_scope : scope_entry list;
}

type binding = { b_name : string; b_line : int; b_refs : value_ref list }

type shape = {
  s_values : (string * int) list;
  s_modules : (string * module_def) list;
  s_includes : (string * string list) list;
}

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
  a_values : value_ref list;
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

(* --- the scoped walk ------------------------------------------------------ *)

(* One walk over an implementation, tracking what each name means where
   it is written. The scope is a persistent list, innermost entry first:
   structure-level and expression-scoped opens, includes, module
   definitions and aliases, toplevel [let]s (with their dotted name
   inside the file) and expression-local variables. Every value path
   is recorded with the scope it was written in, so {!Resolve} can pin
   it to a definition without re-walking the tree.

   The same walk builds the module-toplevel inventory: bindings with
   the value references of their right-hand side, mutable globals,
   mutation witnesses, and the unit's shape (values, nested modules,
   aliases and includes by dotted name). Bindings are recorded only
   where a path can name them: at toplevel and inside named nested
   structures, not inside functor bodies or expressions. *)
let implementation st =
  let open Parsetree in
  let globals = ref [] and bindings = ref [] and witnesses = ref [] in
  let values = ref [] and mutable_labels = ref [] in
  let s_values = ref [] and s_modules = ref [] and s_includes = ref [] in
  let scope = ref [] in
  (* dotted prefix of the named structure being walked, or [None] where
     definitions are not addressable *)
  let prefix = ref (Some "") in
  (* value references of the toplevel binding being walked *)
  let current = ref None in
  let push entries = scope := List.rev_append entries !scope in
  let scoped entries f =
    let saved = !scope in
    push entries;
    f ();
    scope := saved
  in
  let locals p = List.map (fun (v, _) -> Local v) (pattern_vars p) in
  let vref (lid : Longident.t Location.loc) =
    { r_path = flatten lid.Location.txt; r_line = line_of lid.Location.loc;
      r_scope = !scope }
  in
  let note_value lid =
    let r = vref lid in
    values := r :: !values;
    match !current with Some refs -> refs := r :: !refs | None -> ()
  in
  let witness (a : expression) =
    match a.pexp_desc with
    | Pexp_ident lid -> witnesses := vref lid :: !witnesses
    | _ -> ()
  in
  let rec module_def (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident lid -> Alias (flatten lid.Location.txt)
    | Pmod_constraint (me, _) -> module_def me
    | _ -> Opaque
  in
  let rec named_structure (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure st -> Some st
    | Pmod_constraint (me, _) -> named_structure me
    | _ -> None
  in
  let default = Ast_iterator.default_iterator in
  let unaddressable f =
    let saved = !prefix in
    prefix := None;
    f ();
    prefix := saved
  in
  let expr self e =
    match e.pexp_desc with
    | Pexp_ident lid -> note_value lid
    | Pexp_let (flag, vbs, body) ->
        let bound = List.concat_map (fun vb -> locals vb.pvb_pat) vbs in
        if flag = Asttypes.Recursive then
          scoped bound (fun () ->
              List.iter (self.Ast_iterator.value_binding self) vbs;
              self.Ast_iterator.expr self body)
        else (
          List.iter (self.Ast_iterator.value_binding self) vbs;
          scoped bound (fun () -> self.Ast_iterator.expr self body))
    | Pexp_fun (_, default_arg, p, body) ->
        Option.iter (self.Ast_iterator.expr self) default_arg;
        self.Ast_iterator.pat self p;
        scoped (locals p) (fun () -> self.Ast_iterator.expr self body)
    | Pexp_for (p, lo, hi, _, body) ->
        self.Ast_iterator.expr self lo;
        self.Ast_iterator.expr self hi;
        scoped (locals p) (fun () -> self.Ast_iterator.expr self body)
    | Pexp_letop { let_; ands; body } ->
        List.iter
          (fun (b : binding_op) -> self.Ast_iterator.expr self b.pbop_exp)
          (let_ :: ands);
        scoped
          (List.concat_map (fun (b : binding_op) -> locals b.pbop_pat) (let_ :: ands))
          (fun () -> self.Ast_iterator.expr self body)
    | Pexp_open (od, body) ->
        self.Ast_iterator.open_declaration self od;
        let entries =
          match od.popen_expr.pmod_desc with
          | Pmod_ident lid -> [ Open (flatten lid.Location.txt) ]
          | _ -> []
        in
        scoped entries (fun () -> self.Ast_iterator.expr self body)
    | Pexp_letmodule (name, me, body) ->
        unaddressable (fun () -> self.Ast_iterator.module_expr self me);
        let entries =
          match name.Location.txt with
          | Some n -> [ Module (n, module_def me) ]
          | None -> []
        in
        scoped entries (fun () -> self.Ast_iterator.expr self body)
    | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args)
      when mutator_path (flatten lid.Location.txt) ->
        List.iter (fun (_, a) -> witness a) args;
        default.Ast_iterator.expr self e
    | Pexp_setfield (target, _, _) ->
        witness target;
        default.Ast_iterator.expr self e
    | _ -> default.Ast_iterator.expr self e
  in
  let case self c =
    scoped (locals c.pc_lhs) (fun () -> default.Ast_iterator.case self c)
  in
  let toplevel_binding self (vb : value_binding) =
    match !prefix with
    | None -> self.Ast_iterator.value_binding self vb
    | Some pre ->
        let refs = ref [] in
        current := Some refs;
        unaddressable (fun () -> self.Ast_iterator.value_binding self vb);
        current := None;
        let b_refs = List.rev !refs in
        List.iter
          (fun (name, line) ->
            let name = pre ^ name in
            bindings := { b_name = name; b_line = line; b_refs } :: !bindings;
            s_values := (name, line) :: !s_values;
            match classify_rhs ~mutable_labels:!mutable_labels vb.pvb_expr with
            | Some kind ->
                globals := { g_name = name; g_line = line; g_kind = kind } :: !globals
            | None -> ())
          (pattern_vars vb.pvb_pat)
  in
  (* a definition a path can name, or a local one *)
  let defined name =
    match !prefix with Some pre -> Value (name, pre ^ name) | None -> Local name
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
        let name = vd.pval_name.Location.txt in
        Option.iter
          (fun pre -> s_values := (pre ^ name, line_of si.pstr_loc) :: !s_values)
          !prefix;
        push [ defined name ]
    | Pstr_type (_, decls) ->
        List.iter
          (fun d ->
            match d.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun l ->
                    if l.pld_mutable = Asttypes.Mutable then
                      mutable_labels := l.pld_name.Location.txt :: !mutable_labels)
                  labels
            | _ -> ())
          decls;
        default.Ast_iterator.structure_item self si
    | Pstr_open od ->
        default.Ast_iterator.structure_item self si;
        (match od.popen_expr.pmod_desc with
        | Pmod_ident lid -> push [ Open (flatten lid.Location.txt) ]
        | _ -> ())
    | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        let path = flatten lid.Location.txt in
        Option.iter (fun pre -> s_includes := (pre, path) :: !s_includes) !prefix;
        push [ Open path ]
    | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr = me; _ } ->
        let def =
          match (named_structure me, !prefix) with
          | Some st, Some pre ->
              prefix := Some (pre ^ name ^ ".");
              self.Ast_iterator.structure self st;
              prefix := Some pre;
              Nested (pre ^ name)
          | _ ->
              unaddressable (fun () -> self.Ast_iterator.module_expr self me);
              module_def me
        in
        Option.iter (fun pre -> s_modules := (pre ^ name, def) :: !s_modules) !prefix;
        push [ Module (name, def) ]
    | Pstr_recmodule _ ->
        unaddressable (fun () -> default.Ast_iterator.structure_item self si)
    | _ -> default.Ast_iterator.structure_item self si
  in
  let iter =
    {
      default with
      expr;
      case;
      structure_item;
      structure =
        (fun self items ->
          scoped [] (fun () -> List.iter (self.Ast_iterator.structure_item self) items));
    }
  in
  iter.Ast_iterator.structure iter st;
  ( List.rev !globals,
    List.rev !bindings,
    List.rev !witnesses,
    List.rev !values,
    { s_values = List.rev !s_values; s_modules = List.rev !s_modules;
      s_includes = List.rev !s_includes } )

(* The shape an interface declares: its values (including those of
   nested signatures, by dotted name), nested modules and aliases, and
   [include module type of M] re-exports. *)
let interface sg =
  let open Parsetree in
  let values = ref [] and modules = ref [] and includes = ref [] in
  let rec signature pre items = List.iter (item pre) items
  and item pre si =
    match si.psig_desc with
    | Psig_value vd ->
        values := (pre ^ vd.pval_name.Location.txt, line_of si.psig_loc) :: !values
    | Psig_module { pmd_name = { txt = Some name; _ }; pmd_type = mty; _ } ->
        let def =
          match mty.pmty_desc with
          | Pmty_signature sg ->
              signature (pre ^ name ^ ".") sg;
              Nested (pre ^ name)
          | Pmty_alias lid
          | Pmty_typeof { pmod_desc = Pmod_ident lid; _ } ->
              Alias (flatten lid.Location.txt)
          | _ -> Opaque
        in
        modules := (pre ^ name, def) :: !modules
    | Psig_include
        { pincl_mod = { pmty_desc = Pmty_typeof { pmod_desc = Pmod_ident lid; _ }; _ }; _ }
      ->
        includes := (pre, flatten lid.Location.txt) :: !includes
    | Psig_include { pincl_mod = { pmty_desc = Pmty_signature sg; _ }; _ } ->
        signature pre sg
    | _ -> ()
  in
  signature "" sg;
  { s_values = List.rev !values; s_modules = List.rev !modules;
    s_includes = List.rev !includes }

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
  let empty = { s_values = []; s_modules = []; s_includes = [] } in
  let a_globals, a_bindings, a_witnesses, a_values, a_shape =
    match (intf, impl) with
    | _, Some st -> implementation st
    | Some sg, None -> ([], [], [], [], interface sg)
    | None, None -> ([], [], [], [], empty)
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
    a_values;
    a_shape;
    a_structure = impl;
  }
