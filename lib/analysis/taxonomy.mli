(** Shared trust taxonomy: the paper's four architecture categories and
    the trusted/safe ("unsafe-analogue") split, consumed by both the
    architecture linter and the Fig. 5 LoC analysis so there is exactly
    one classification of every source path. *)

type category =
  | Core  (** lib/core — kernel core: scheduler, grants, capabilities. *)
  | Hw  (** lib/hw — simulated chips; the unsafe-analogue substrate. *)
  | Crypto  (** lib/crypto — primitives backing hw engines and TBF. *)
  | Tbf  (** lib/tbf — Tock binary format parsing/verification. *)
  | Capsule  (** lib/capsules — untrusted drivers above the HIL. *)
  | Userland  (** lib/userland — syscall-ABI client code. *)
  | Board  (** lib/boards, bin/, examples/ — trusted composition roots. *)
  | Obs  (** lib/obs — zero-dependency observability leaf. *)
  | Tooling  (** test/, bench/, lib/analysis — outside the kernel. *)

type trust = Trusted | Safe

val category_name : category -> string

type library = {
  lib_name : string;  (** dune library name, e.g. ["tock_hw"]. *)
  lib_dir : string;  (** repo-relative source dir, e.g. ["lib/hw"]. *)
  lib_root_module : string;  (** wrapped root module, e.g. ["Tock_hw"]. *)
  lib_category : category;
}

val library_by_name : string -> library option

val library_by_root_module : string -> library option

val library_of_path : string -> library option
(** Library owning a repo-relative source path, if any. *)

val categorize : string -> category option
(** Category of a repo-relative source path ([None] for paths outside
    the taxonomy, e.g. the project root). *)

val module_base : string -> string
(** ["lib/core/cells.mli"] -> ["cells"]. *)

val trust_of_path : string -> trust

val kernel_dirs : string list
(** The kernel-proper directories measured by the Fig. 5 analogue. *)

val scan_dirs : string list
(** Every directory the linter walks (kernel dirs plus tooling). *)

val shard_entry_files : string list
(** Files whose toplevel bindings are the fleet's per-domain shard
    entry points; the domain-safety analysis computes reachability
    from every binding in these files. *)

val allowed_lib_deps : category -> string list
(** Layering matrix: otock libraries a stanza of the given category may
    list in its dune [libraries] field. *)

val userland_core_allowed : string list
(** Core-kernel submodules userland code may reference (the syscall ABI
    surface). *)

val starts_with : string -> string -> bool
(** [starts_with prefix s]. *)
