(** The one OCaml front end of otock-lint and otock-check: each
    [.ml]/[.mli] file is parsed once with compiler-libs ([Parse] +
    [Ast_iterator]) and summarized. The lint rules read its dotted
    paths, opens, attributes and allowlist pragmas; otock-check reads
    the module-toplevel mutable-state inventory, every value path with
    its scope (per binding, for interprocedural reachability, and
    file-wide, for export uses), in-place mutation witnesses, the
    unit's shape and the parsed structure. Parsing never raises — a
    rejected file comes back with [a_parsed = false]. *)

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
  | Module of string * module_def
      (** A module name bound in this file: [module X = P],
          [let module X = P in], [module X = struct ... end]. *)
  | Value of string * string
      (** A module-level [let] of this file: the bare name and its
          dotted name inside the file (["Accum.add"]). *)
  | Local of string
      (** An expression-local variable; it shadows everything outside. *)

and module_def =
  | Alias of string list  (** [module X = P], as written. *)
  | Nested of string
      (** A structure or signature of this file, by dotted name. *)
  | Opaque  (** A functor application, an unpacked module, ... *)

type value_ref = {
  r_path : string list;
  r_line : int;
  r_scope : scope_entry list;  (** The scope the path was written in. *)
}

type binding = { b_name : string; b_line : int; b_refs : value_ref list }

type shape = {
  s_values : (string * int) list;
      (** Values the unit defines ([.ml]) or exports ([.mli]), by
          dotted name, with their lines. *)
  s_modules : (string * module_def) list;  (** Nested modules, by dotted name. *)
  s_includes : (string * string list) list;
      (** [include M] and [include module type of M]: the dotted prefix
          they sit under ([""] at toplevel) and [M] as written. *)
}

type reference = {
  ref_modules : string list;
      (** Capitalized components, outermost first (a trailing module or
          constructor name included): [Tock_crypto.Schnorr.keypair]
          gives [\["Tock_crypto"; "Schnorr"\]]. *)
  ref_member : string option;
      (** Trailing value, type, field or label, if any. *)
  ref_line : int;
  ref_literal : string option;
      (** For an applied path, its first string-literal argument:
          [Metrics.counter reg "fleet.x"] gives [Some "fleet.x"]. *)
}
(** A path of two or more components as written in source. Ghost
    (desugared) paths are skipped; an unqualified Stdlib console
    writer ({!console_writers}) is recorded as [Stdlib.<name>]. *)

type open_decl = {
  open_modules : string list;
  open_line : int;
  open_scoped : bool;
      (** [let open M in], [M.(...)]: expression-scoped. Scoped opens
          still resolve unqualified references, but are not themselves
          wholesale-open edges (a [let open Tock in] inside one function
          is not the file importing the kernel wholesale). A dotted
          scoped open is also a {!reference}. *)
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
  a_refs : reference list;  (** Source order. *)
  a_opens : open_decl list;  (** Source order. *)
  a_attributes : attribute list;
  a_pragmas : pragma list;
      (** Also read from a file that does not parse, up to the error. *)
  a_globals : global list;
  a_bindings : binding list;
  a_witnesses : value_ref list;
      (** Identifier paths passed to a known in-place mutator
          ([Array.set], [Bytes.blit], field assignment, ...): a
          bytes/array global with no witness anywhere is a read-only
          table, not shared mutable state. *)
  a_values : value_ref list;
      (** Every value path of an implementation, in walk order, with its
          scope. *)
  a_shape : shape;
  a_structure : Parsetree.structure option;
      (** The parse of an implementation, for analyses that walk the
          tree themselves ({!Escape}). *)
}

val of_source : path:string -> string -> t
(** Parses with [Parse.interface] when [path] ends in [.mli], with
    [Parse.implementation] otherwise. The inventory fields are empty
    for an interface. *)

val console_writers : string list
(** Unqualified Stdlib writers to stdout/stderr ([print_endline], ...). *)
