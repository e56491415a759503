(** Source-tree discovery: loads every [.ml]/[.mli]/[dune] file under
    {!Taxonomy.scan_dirs} with repo-relative paths. *)

type kind = Ml | Mli | Dune

type file = { path : string; kind : kind; content : string }

val find_root : unit -> string option
(** Walk upward from the cwd until [lib/core] and [dune-project] are
    visible (dune runs tests inside [_build]). *)

val scan : root:string -> file list

val scan_dir : root:string -> string -> file list
(** Scan a single repo-relative directory. *)

val count_lines : string -> int

val file : path:string -> content:string -> file
(** Build an in-memory file (for tests); kind inferred from the path. *)
