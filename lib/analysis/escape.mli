(** Allow-window escape analysis (otock-lint's [allow-escape] rule).

    [Kernel.with_allow_rw]/[with_allow_ro] lend a capsule a
    [Subslice.t] window for exactly the closure's extent; the range is
    revoked at unallow. This pass flags borrows that outlive the
    closure — stored into a ref / mutable field / container, returned
    (bare, wrapped, or captured in a returned closure) — and
    [Kernel.allow_window] clones stashed into module-toplevel globals,
    where they would outlive the board itself. *)

type finding = { f_file : string; f_line : int; f_message : string }

val analyze :
  path:string -> global_names:string list -> Parsetree.structure -> finding list
(** [global_names] are the file's module-toplevel bindings (from
    {!Ast_extract}), used to tell a global stash from capsule instance
    state. Findings come back in source order. *)
