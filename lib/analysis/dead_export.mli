(** Dead-export analysis: every [val] of a [lib/**/*.mli] (nested
    signatures included) that no other unit names. Uses are the value
    paths of every given implementation — library, binaries, benches,
    tests and examples — resolved by {!Resolve}, so a same-named value
    elsewhere, a comment or a string does not keep an export alive; an
    unpinned candidate counts as a use. A
    use from the export's own [.ml] only narrows the fix: drop it from
    the [.mli] instead of deleting it. *)

type finding = { f_file : string; f_line : int; f_message : string }

val analyze : Resolve.t -> Ast_extract.t list -> finding list
(** Findings sorted by (file, line); each message names its fix. *)
