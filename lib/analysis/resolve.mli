(** The one path resolver of otock-lint, shared by the architecture
    rules ({!Dep_graph}'s library edges), {!Domain_safety} and
    {!Dead_export}: pins a path, written in the scope {!Ast_extract}
    recorded, to the modules and values it can name.

    A path resolves through module aliases, nested modules, [open],
    [let open], [M.(...)] and [include] in its scope, then through the
    sibling units of its directory or library, then through library
    roots ([Tock.Kernel.x]). A value found through an [include] also
    names the included definition (a re-export is one export). A head
    none of these pins may mean any unit of that name: those units are
    unpinned candidates, and so is everything reached through them. *)

type target = {
  t_unit : string;  (** {!unit_of_path} of the defining unit. *)
  t_name : string;  (** Dotted name inside the unit: ["Accum.add"]. *)
}

type 'a answer = {
  pinned : 'a list;  (** What the path names for certain. *)
  unpinned : 'a list;
      (** Candidates of a head only its bare name matched. Sorted, no
          duplicates, none of them pinned. *)
}

type t

val unit_of_path : string -> string
(** ["lib/core/kernel.ml"] gives ["Tock.Kernel"] (the library's
    wrapped root); ["test/helpers.ml"] gives ["test/Helpers"]. An
    [.ml] and its [.mli] are one unit. *)

val create : Ast_extract.t list -> t
(** The units of the given summaries, with the union of their
    implementation and interface shapes. *)

val values : t -> path:string -> Ast_extract.path -> target answer
(** The definitions a [Value] path written in the file [path] can mean:
    none for another kind, a local variable or a path outside the given
    units. *)

val modules : t -> path:string -> Ast_extract.path -> string answer
(** Where the path's module part ({!Ast_extract.modules_of}) enters the
    other units: for each module it can name, the first unit on the
    way there, after the file's own aliases, nested modules, opens and
    includes — ["Tock_hw.Uart"] for [U.x] under
    [module U = Tock_hw.Uart], ["Tock.Crc16"] for [Tock.Crc16.Reference]
    even though that module is defined in the unit [Tock.Crc16]
    includes. A path that enters no unit gives the library root it
    names (["Tock"]) or the file's own unit. A module of a library root
    outside the given units names nothing. *)
