(** The one OCaml front end of otock-lint: each [.ml]/[.mli] file is
    parsed once with compiler-libs ([Parse] + [Ast_iterator]) and
    summarized by one walk. Every path the file writes is recorded once,
    with its kind and the scope it is written in; the rules read them
    (through {!Resolve} where a path must be pinned), with the opens,
    attributes and allowlist pragmas, the module-toplevel mutable-state
    inventory, in-place mutation witnesses, the unit's shape and the
    parsed structure. Parsing never raises — a rejected file comes back
    with [a_parsed = false]. *)

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

val kind_name : mutability -> string

val kind_is_synchronized : mutability -> bool
(** Atomic and Mutex globals are domain-safe by construction. *)

type global = {
  g_name : string;  (** Nested-module bindings are dotted: ["M.latch"]. *)
  g_line : int;
  g_kind : mutability;
}

(** What a name means where it is written, innermost entry first. *)
type scope_entry =
  | Open of string list
      (** [open M], [include M], [let open M in] or [M.(...)]: [M]'s
          members are in scope. *)
  | Bound_module of string * module_def
      (** A module name bound in this file: [module X = P],
          [let module X = P in], [module X = struct ... end]. *)
  | Toplevel of string * string
      (** A module-level [let] of this file: the bare name and its
          dotted name inside the file (["Accum.add"]). *)
  | Local of string
      (** An expression-local variable; it shadows everything outside. *)

and module_def =
  | Alias of string list  (** [module X = P], as written. *)
  | Nested of string
      (** A structure or signature of this file, by dotted name. *)
  | Opaque  (** A functor application, an unpacked module, ... *)

(** What the last component of a path names. *)
type kind =
  | Value  (** [x], [M.x] in an expression. *)
  | Constructor  (** A variant or exception constructor. *)
  | Field  (** A record field or label. *)
  | Type  (** A type, class or class type. *)
  | Module  (** A module: every component names one. *)
  | Module_type

type path = {
  p_path : string list;  (** As written, outermost first. *)
  p_kind : kind;
  p_line : int;
  p_scope : scope_entry list;  (** The scope the path was written in. *)
  p_literal : string option;
      (** For an applied value path, its first string-literal argument:
          [Metrics.counter reg "fleet.x"] gives [Some "fleet.x"]. *)
}

type binding = {
  b_name : string;
  b_line : int;
  b_paths : path list;  (** The paths its definition writes. *)
}

type shape = {
  s_values : (string * int) list;
      (** Values the unit defines ([.ml]) or exports ([.mli]), by
          dotted name, with their lines. *)
  s_modules : (string * module_def) list;  (** Nested modules, by dotted name. *)
  s_includes : (string * string list) list;
      (** [include M] and [include module type of M]: the dotted prefix
          they sit under ([""] at toplevel) and [M] as written. *)
}

type open_decl = {
  open_path : path;
      (** [Module], or [Module_type] for an interface's [include S]; its
          scope is the one before the declaration. *)
  open_scoped : bool;
      (** [let open M in], [M.(...)]: expression-scoped. A scoped open
          still resolves the names under it, but is not itself a
          wholesale import (a [let open Tock in] inside one function is
          not the file importing the kernel wholesale), and its module
          path is also in [a_paths]. *)
}
(** [open], [include], [let open] and [M.(...)] declarations. *)

type attribute = {
  attr_text : string;  (** Source text, brackets included. *)
  attr_line : int;
}

type pragma = {
  pragma_rule : string;  (** Rule id, or ["*"] for all rules. *)
  pragma_file_level : bool;
      (** [allow-file] suppresses the rule for the whole file;
          [allow] only for the pragma's line and the next. *)
  pragma_note : string;  (** Justification text after the rule id. *)
  pragma_line : int;  (** Closing line of the comment holding it. *)
}

type t = {
  a_path : string;
  a_parsed : bool;
  a_paths : path list;
      (** Every path written in source, in source order; structure- and
          signature-level opens and includes are {!a_opens} only. *)
  a_opens : open_decl list;  (** Source order. *)
  a_attributes : attribute list;
  a_pragmas : pragma list;
      (** Also read from a file that does not parse, up to the error. *)
  a_globals : global list;
  a_bindings : binding list;
  a_witnesses : path list;
      (** Identifier paths passed to a known in-place mutator
          ([Array.set], [Bytes.blit], field assignment, ...): a
          bytes/array global with no witness anywhere is a read-only
          table, not shared mutable state. *)
  a_shape : shape;
  a_structure : Parsetree.structure option;
      (** The parse of an implementation, for analyses that walk the
          tree themselves ({!Escape}). *)
}

val modules_of : path -> string list
(** The modules a path writes: the whole of a [Module] path, the
    components before the last of any other ([[]] for a bare name). *)

val of_source : path:string -> string -> t
(** Parses with [Parse.interface] when [path] ends in [.mli], with
    [Parse.implementation] otherwise. The inventory fields are empty
    for an interface. *)
