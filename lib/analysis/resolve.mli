(** The one value resolver of otock-check, shared by {!Domain_safety}
    and {!Dead_export}: pins a value path, written in the scope
    {!Ast_extract} recorded, to the definitions it can name.

    A path resolves through module aliases, nested modules, [open],
    [let open], [M.(...)] and [include] in its scope, then through the
    sibling units of its directory or library, then through library
    roots ([Tock.Kernel.x]). A value found through an [include] also
    names the included definition (a re-export is one export). A path
    whose head none of these pins counts as every unit of that name. *)

type target = {
  t_unit : string;  (** {!unit_of_path} of the defining unit. *)
  t_name : string;  (** Dotted name inside the unit: ["Accum.add"]. *)
}

type t

val unit_of_path : string -> string
(** ["lib/core/kernel.ml"] gives ["Tock.Kernel"] (the library's
    wrapped root); ["test/helpers.ml"] gives ["test/Helpers"]. An
    [.ml] and its [.mli] are one unit. *)

val create : Ast_extract.t list -> t
(** The units of the given summaries, with the union of their
    implementation and interface shapes. *)

val resolve : t -> path:string -> Ast_extract.value_ref -> target list
(** The definitions a value path written in the file [path] can mean:
    none for a local variable or a path outside the given units, one
    when the path pins it, several when it cannot. Sorted, no
    duplicates. *)
