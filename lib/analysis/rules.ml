(* The otock-lint rule set: one pass over one parse of every scanned
   file, one resolver and one suppression. Its rules are grounded in the
   paper:

   - layering (§4.1, Fig. 2): capsules reach hardware only through the
     HIL/adaptors in the core kernel; userland sees only the syscall ABI;
     crypto primitives are reachable only from the hw engines and TBF.
   - capability non-forgeability (§4.4, Listing 1): `Trusted_mint` may
     be named only by trusted board-initialization code and tests.
   - unsafe-analogue confinement (Fig. 5): `Obj.magic`, warning
     suppressions, missing interfaces and raw `Subslice` buffer escapes
     are the OCaml stand-ins for `unsafe` and must stay inside the
     trusted set.
   - `Take_cell.take` without a restoring `put`/`replace` in the same
     file is the buffer-loss bug Tock's ownership types prevent
     statically; we lint for it heuristically.
   - the dataflow rules: module-toplevel mutable state reachable from
     the fleet's shard entry points without Atomic/Mutex
     ([domain-safety], {!Domain_safety}), allow-window borrows outliving
     their [with_allow] scope ([allow-escape], {!Escape}), and library
     interface values no other unit names ([dead-export],
     {!Dead_export}).

   Every rule reads the {!Ast_extract} summaries; paths that must be
   pinned go through one {!Resolve.t} (library edges via {!Dep_graph},
   reachability, export uses). A file compiler-libs cannot parse is
   itself a finding ([lint-parse]). Violations can be suppressed by an
   inline pragma carrying a justification (an [otock-lint:] comment, see
   {!Ast_extract.pragma}) on the same or previous line, or an
   [allow-file] one for a whole file; nothing else suppresses one (see
   Report). *)

type violation = {
  v_rule : string;
  v_file : string;
  v_line : int;
  v_message : string;
}

type result = {
  violations : violation list;  (* not suppressed by a pragma *)
  suppressed : (violation * Ast_extract.pragma) list;
}

let v rule file line fmt =
  Printf.ksprintf
    (fun m -> { v_rule = rule; v_file = file; v_line = line; v_message = m })
    fmt

let cat_of (n : Dep_graph.node) = n.Dep_graph.node_category

let paths (n : Dep_graph.node) = n.Dep_graph.node_summary.Ast_extract.a_paths

(* A path as written: its modules and the value, constructor, field,
   type or module type after them ([Tock_crypto.Schnorr.keypair] gives
   [Tock_crypto; Schnorr] and [keypair]; a module path is all
   modules). *)
let split (p : Ast_extract.path) =
  ( Ast_extract.modules_of p,
    match (p.Ast_extract.p_kind, List.rev p.Ast_extract.p_path) with
    | Ast_extract.Module, _ | _, [] -> None
    | _, last :: _ -> Some last )

let edge_target_name (e : Dep_graph.edge) =
  let open Dep_graph in
  match e.edge_submodule with
  | Some s -> e.edge_lib.Taxonomy.lib_root_module ^ "." ^ s
  | None -> e.edge_lib.Taxonomy.lib_root_module

(* --- layering --------------------------------------------------------- *)

(* Source-level counterpart of Taxonomy.allowed_lib_deps: which otock
   libraries may a file of the given category name in its code? The
   capsule set additionally admits tock_tbf (binary-format parsing is
   data-only; app_loader and the signature checker consume it), which
   the dune matrix mirrors. *)
let allowed_source_targets (cat : Taxonomy.category) =
  match cat with
  | Taxonomy.Capsule -> Some [ "tock"; "tock_capsules"; "tock_tbf"; "tock_obs" ]
  | Taxonomy.Userland -> Some [ "tock"; "tock_userland" ]
  | _ -> None (* other categories are constrained by specific rules below *)

let rule_capsule_layering (n : Dep_graph.node) =
  match cat_of n with
  | Some Taxonomy.Capsule ->
      List.filter_map
        (fun (e : Dep_graph.edge) ->
          let name = e.Dep_graph.edge_lib.Taxonomy.lib_name in
          match allowed_source_targets Taxonomy.Capsule with
          | Some allowed when not (List.mem name allowed) ->
              Some
                (v "capsule-layering" n.Dep_graph.node_path
                   e.Dep_graph.edge_line
                   "capsule references %s; capsules may reach hardware only \
                    through the core kernel's Hil/Adaptors (paper Fig. 2)"
                   (edge_target_name e))
          | _ -> None)
        n.Dep_graph.node_edges
  | _ -> []

let rule_userland_internals (n : Dep_graph.node) =
  match cat_of n with
  | Some Taxonomy.Userland ->
      List.filter_map
        (fun (e : Dep_graph.edge) ->
          let open Dep_graph in
          let lib = e.edge_lib.Taxonomy.lib_name in
          if lib = "tock_userland" then None
          else if lib <> "tock" then
            Some
              (v "userland-kernel-internals" n.node_path e.edge_line
                 "userland references %s; userland code sees only the \
                  syscall ABI (paper Fig. 2)"
                 (edge_target_name e))
          else
            match e.edge_submodule with
            | Some s when List.mem s Taxonomy.userland_core_allowed -> None
            | Some s ->
                Some
                  (v "userland-kernel-internals" n.node_path e.edge_line
                     "userland references kernel internal Tock.%s; only the \
                      ABI surface (%s) is permitted"
                     s
                     (String.concat ", " Taxonomy.userland_core_allowed))
            | None ->
                Some
                  (v "userland-kernel-internals" n.node_path e.edge_line
                     "userland opens Tock wholesale; name the ABI modules \
                      explicitly so the boundary stays visible"))
        n.Dep_graph.node_edges
  | _ -> []

let rule_crypto_confinement (n : Dep_graph.node) =
  match cat_of n with
  | Some (Taxonomy.Hw | Taxonomy.Tbf | Taxonomy.Crypto | Taxonomy.Tooling) | None
    ->
      []
  | Some cat ->
      List.filter_map
        (fun (e : Dep_graph.edge) ->
          if e.Dep_graph.edge_lib.Taxonomy.lib_name = "tock_crypto" then
            Some
              (v "crypto-confinement" n.Dep_graph.node_path
                 e.Dep_graph.edge_line
                 "%s code references %s; crypto primitives are reachable \
                  only from hw engines and tbf"
                 (Taxonomy.category_name cat) (edge_target_name e))
          else None)
        n.Dep_graph.node_edges

(* --- capability non-forgeability -------------------------------------- *)

let mint_allowed path =
  Taxonomy.starts_with "lib/boards/" path
  || Taxonomy.starts_with "test/" path
  || Taxonomy.module_base path = "capability" (* the defining module *)
     && Taxonomy.starts_with "lib/core/" path

let in_mint dotted = List.mem "Trusted_mint" (String.split_on_char '.' dotted)

(* The last names of the values a [Trusted_mint] module defines: only a
   path ending in one of them can pin a mint. *)
let mint_names (summaries : Ast_extract.t list) =
  List.concat_map
    (fun (a : Ast_extract.t) ->
      List.filter_map
        (fun (name, _) ->
          if in_mint name then
            Some (List.hd (List.rev (String.split_on_char '.' name)))
          else None)
        a.Ast_extract.a_shape.Ast_extract.s_values)
    summaries

(* A path names the mint if it is written through a [Trusted_mint]
   module, or if it pins a value defined in one: behind
   [module M = Capability.Trusted_mint] (or an open or include of it)
   every [M.main_loop ()] is a mint, not just the alias line. *)
let rule_mint_confinement r names (n : Dep_graph.node) =
  let pins_mint (p : Ast_extract.path) =
    match List.rev p.Ast_extract.p_path with
    | x :: _ when List.mem x names ->
        List.exists
          (fun (t : Resolve.target) -> in_mint t.Resolve.t_name)
          (Resolve.values r ~path:n.Dep_graph.node_path p).Resolve.pinned
    | _ -> false
  in
  if mint_allowed n.Dep_graph.node_path then []
  else
    List.filter_map
      (fun (p : Ast_extract.path) ->
        if List.mem "Trusted_mint" (Ast_extract.modules_of p) || pins_mint p
        then
          Some
            (v "mint-confinement" n.Dep_graph.node_path p.Ast_extract.p_line
               "Trusted_mint referenced outside lib/boards and test/: \
                capability tokens are forgeable from here (paper §4.4, \
                Listing 1)")
        else None)
      (paths n)

(* --- unsafe-analogue confinement -------------------------------------- *)

let trusted (n : Dep_graph.node) =
  Taxonomy.trust_of_path n.Dep_graph.node_path = Taxonomy.Trusted

let tooling (n : Dep_graph.node) = cat_of n = Some Taxonomy.Tooling

let rule_obj_magic (n : Dep_graph.node) =
  if trusted n then []
  else
    List.filter_map
      (fun (p : Ast_extract.path) ->
        if Ast_extract.modules_of p = [ "Obj" ] then
          Some
            (v "obj-magic" n.Dep_graph.node_path p.Ast_extract.p_line
               "%s outside the trusted set: this is the unsafe-analogue \
                and belongs in lib/hw or trusted lib/core only"
               (String.concat "." p.Ast_extract.p_path))
        else None)
      (paths n)

let suppression_attr text =
  (* [@warning "-..."], [@@@warning "-..."], [@ocaml.warning "-..."] *)
  let has sub =
    let ls = String.length sub and lt = String.length text in
    let rec go i = i + ls <= lt && (String.sub text i ls = sub || go (i + 1)) in
    go 0
  in
  has "warning" && has "\"-"

let rule_warning_suppression (n : Dep_graph.node) =
  if trusted n || tooling n then []
  else
    List.filter_map
      (fun (a : Ast_extract.attribute) ->
        if suppression_attr a.Ast_extract.attr_text then
          Some
            (v "warning-suppression" n.Dep_graph.node_path
               a.Ast_extract.attr_line
               "warning suppression %s outside the trusted set hides exactly \
                the diagnostics the Fig. 5 discipline depends on"
               (String.trim a.Ast_extract.attr_text))
        else None)
      n.Dep_graph.node_summary.Ast_extract.a_attributes

let rule_missing_mli (g : Dep_graph.t) =
  List.filter_map
    (fun (n : Dep_graph.node) ->
      let p = n.Dep_graph.node_path in
      if
        Taxonomy.starts_with "lib/" p
        && Filename.check_suffix p ".ml"
        && not (List.mem (p ^ "i") g.Dep_graph.mli_paths)
      then
        Some
          (v "missing-mli" p 1
             "library module without an interface: every lib/ module \
              declares its surface so the trusted boundary is auditable")
      else None)
    g.Dep_graph.nodes

let rule_subslice_escape (n : Dep_graph.node) =
  if trusted n || tooling n then []
  else
    List.filter_map
      (fun (p : Ast_extract.path) ->
        match split p with
        | mods, Some "underlying" when List.exists (( = ) "Subslice") mods ->
            Some
              (v "subslice-escape" n.Dep_graph.node_path
                 p.Ast_extract.p_line
                 "Subslice.underlying exposes the raw buffer behind the \
                  window; outside trusted DMA models use the checked \
                  window API (paper §4.2)")
        | _ -> None)
      (paths n)

(* A capsule reaching for [Bytes.sub]/[Bytes.copy] is copying payload the
   allow-window discipline says it should window in place: the zero-copy
   I/O path (paper §4.2) moves buffers from syscall to hardware as
   [Subslice] windows, and a fresh heap copy on the data plane is exactly
   the cost it eliminates. Deliberate copies (retained copying oracles,
   rare compaction, load-time snapshots) carry a pragma'd justification. *)
let rule_capsule_byte_copy (n : Dep_graph.node) =
  match cat_of n with
  | Some Taxonomy.Capsule ->
      List.filter_map
        (fun (p : Ast_extract.path) ->
          match split p with
          | [ "Bytes" ], Some (("sub" | "copy") as m) ->
              Some
                (v "capsule-byte-copy" n.Dep_graph.node_path
                   p.Ast_extract.p_line
                   "Bytes.%s in a capsule: data-plane code operates on \
                    allow windows in place (Subslice); justify deliberate \
                    copies with a pragma"
                   m)
          | _ -> None)
        (paths n)
  | _ -> []

(* A kernel or capsule module writing straight to the host's stdout is
   bypassing both the console capsule and the structured observability
   layer: on a real board there is no stdout, and in the simulator the
   bytes vanish from every trace and metric. Debug output goes through
   [Debug_writer] (which owns the escape hatch) or the Tock_obs trace;
   deliberate cases carry a pragma. *)
let raw_print_members = [ "printf"; "eprintf" ]

(* Stdlib writers to stdout/stderr, named bare or as [Stdlib.x]. *)
let console_writers =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "prerr_string"; "prerr_endline"; "prerr_newline";
  ]

let rule_capsule_raw_print (n : Dep_graph.node) =
  match cat_of n with
  | Some (Taxonomy.Core | Taxonomy.Capsule)
    when Taxonomy.module_base n.Dep_graph.node_path <> "debug_writer" ->
      List.filter_map
        (fun (p : Ast_extract.path) ->
          let flag what =
            Some
              (v "capsule-raw-print" n.Dep_graph.node_path
                 p.Ast_extract.p_line
                 "%s writes to the host console from kernel/capsule code; \
                  route debug output through Debug_writer or the Tock_obs \
                  trace (pragma deliberate cases)"
                 what)
          in
          match split p with
          | ([] | [ "Stdlib" ]), Some m
            when p.Ast_extract.p_kind = Ast_extract.Value
                 && List.mem m console_writers ->
              flag m
          | mods, Some m
            when mods <> []
                 && List.mem (List.nth mods (List.length mods - 1))
                      [ "Printf"; "Format" ]
                 && List.mem m raw_print_members ->
              flag
                (List.nth mods (List.length mods - 1) ^ "." ^ m)
          | _ -> None)
        (paths n)
  | _ -> []

(* --- Take_cell discipline --------------------------------------------- *)

let take_cell_ref member (p : Ast_extract.path) =
  match split p with
  | [], _ -> false
  | mods, m -> List.nth mods (List.length mods - 1) = "Take_cell" && m = Some member

let rule_take_without_restore (n : Dep_graph.node) =
  if tooling n then []
  else
    let paths = paths n in
    let takes = List.filter (take_cell_ref "take") paths in
    let restores =
      List.exists (take_cell_ref "put") paths
      || List.exists (take_cell_ref "replace") paths
    in
    if takes = [] || restores then []
    else
      List.map
        (fun (p : Ast_extract.path) ->
          v "take-without-restore" n.Dep_graph.node_path p.Ast_extract.p_line
            "Take_cell.take with no put/replace anywhere in this file: the \
             buffer can be lost on every path (use Take_cell.map, or \
             restore explicitly)")
        takes

(* --- fleet metric namespace -------------------------------------------- *)

(* Every metric the fleet layer registers must live under the "fleet."
   prefix: fleet scheduler metrics and per-board kernel metrics meet in
   one merged snapshot (Fleet.fr_metrics), and a bare name registered
   from lib/fleet would collide with — or shadow — a board-side series.
   Registration is a call like [Metrics.counter reg "fleet.sched.x"]:
   the rule checks the call's first string-literal argument, with the
   usual pragma escape for deliberate exceptions. *)
let rule_fleet_metric_namespace (n : Dep_graph.node) =
  let p = n.Dep_graph.node_path in
  if not (Taxonomy.starts_with "lib/fleet/" p && Filename.check_suffix p ".ml")
  then []
  else
    List.filter_map
      (fun (r : Ast_extract.path) ->
        let mods, member = split r in
        match (List.rev mods, member, r.Ast_extract.p_literal) with
        | "Metrics" :: _, Some ("counter" | "gauge" | "histogram"), Some name
          when not (Taxonomy.starts_with "fleet." name) ->
            Some
              (v "fleet-metric-namespace" p r.Ast_extract.p_line
                 "fleet code registers metric %S outside the fleet.* \
                  namespace; fleet and per-board series share one merged \
                  snapshot, so bare names collide"
                 name)
        | _ -> None)
      (paths n)

(* --- unparsable files --------------------------------------------------- *)

(* A file compiler-libs rejects contributes no paths, so every rule
   would pass it silently: report it instead. *)
let rule_lint_parse (n : Dep_graph.node) =
  if n.Dep_graph.node_summary.Ast_extract.a_parsed then []
  else
    [
      v "lint-parse" n.Dep_graph.node_path 1
        "file does not parse with compiler-libs: otock-lint cannot analyze \
         it, so its findings are unknown";
    ]

(* --- dune-level rules -------------------------------------------------- *)

(* Category of a stanza: judged by its first module's path so the two
   bin/ executables (a board-like simulator and the lint tool) classify
   independently. *)
let stanza_category (d : Dep_graph.dune_stanza) =
  let name =
    match d.Dep_graph.stanza.Extract.stanza_names with
    | n :: _ -> n
    | [] -> "x"
  in
  Taxonomy.categorize (d.Dep_graph.dune_dir ^ "/" ^ name ^ ".ml")

let rule_dune_layering (d : Dep_graph.dune_stanza) =
  match stanza_category d with
  | None -> []
  | Some cat ->
      let allowed = Taxonomy.allowed_lib_deps cat in
      List.filter_map
        (fun (dep, line) ->
          match Taxonomy.library_by_name dep with
          | Some _ when not (List.mem dep allowed) ->
              Some
                (v "dune-layering" d.Dep_graph.dune_path line
                   "%s stanza depends on %s, outside the layering matrix \
                    for %s code"
                   d.Dep_graph.stanza.Extract.stanza_kind dep
                   (Taxonomy.category_name cat))
          | _ -> None)
        d.Dep_graph.stanza.Extract.stanza_libraries

(* A stanza's source nodes: files in its directory. (No stanza in this
   tree uses a (modules ...) partition except bin/, where both
   executables are single-module and share no deps worth splitting;
   attribute edges dir-wide.) *)
let rule_unused_lib_dep (g : Dep_graph.t) (d : Dep_graph.dune_stanza) =
  let nodes = Dep_graph.nodes_in_dir g d.Dep_graph.dune_dir in
  let used lib_name =
    List.exists
      (fun (n : Dep_graph.node) ->
        List.exists
          (fun (e : Dep_graph.edge) ->
            e.Dep_graph.edge_lib.Taxonomy.lib_name = lib_name
            && n.Dep_graph.node_lib <> Some e.Dep_graph.edge_lib)
          n.Dep_graph.node_edges)
      nodes
  in
  List.filter_map
    (fun (dep, line) ->
      match Taxonomy.library_by_name dep with
      | Some _ when not (used dep) ->
          Some
            (v "unused-lib-dep" d.Dep_graph.dune_path line
               "declared dependency %s is never referenced by %s sources; \
                stale edges hide the real architecture"
               dep d.Dep_graph.dune_dir)
      | _ -> None)
    d.Dep_graph.stanza.Extract.stanza_libraries

(* An otock library referenced in code must be a *declared* (direct)
   dependency: implicit transitive visibility silently widens the
   architecture. Own library and stdlib/externals are exempt. Declared
   deps are unioned across all stanzas of the directory (bin/ holds two
   single-module executables). *)
let rule_undeclared_dep (g : Dep_graph.t) dir =
  let declared =
    List.concat_map
      (fun (d : Dep_graph.dune_stanza) ->
        if d.Dep_graph.dune_dir = dir then
          List.map fst d.Dep_graph.stanza.Extract.stanza_libraries
        else [])
      g.Dep_graph.stanzas
    @ List.map
        (fun (l : Taxonomy.library) -> l.Taxonomy.lib_name)
        (match Taxonomy.library_of_path (dir ^ "/x.ml") with
        | Some l -> [ l ]
        | None -> [])
  in
  Dep_graph.nodes_in_dir g dir
  |> List.concat_map (fun (n : Dep_graph.node) ->
         List.filter_map
           (fun (e : Dep_graph.edge) ->
             let name = e.Dep_graph.edge_lib.Taxonomy.lib_name in
             if List.mem name declared then None
             else
               Some
                 (v "undeclared-dep" n.Dep_graph.node_path
                    e.Dep_graph.edge_line
                    "references %s but %s/dune does not declare %s: the \
                     edge exists only through implicit transitive deps"
                    (edge_target_name e) dir name))
           n.Dep_graph.node_edges)

(* --- dataflow rules ------------------------------------------------------ *)

let of_finding rule file line message =
  { v_rule = rule; v_file = file; v_line = line; v_message = message }

let in_kernel path =
  List.exists (fun d -> Taxonomy.starts_with (d ^ "/") path) Taxonomy.kernel_dirs

let rule_domain_safety r kernel_ml =
  List.map
    (fun (f : Domain_safety.finding) ->
      of_finding "domain-safety" f.Domain_safety.f_file f.Domain_safety.f_line
        f.Domain_safety.f_message)
    (Domain_safety.analyze r kernel_ml)

let rule_allow_escape (a : Ast_extract.t) =
  let last_component name =
    match List.rev (String.split_on_char '.' name) with x :: _ -> x | [] -> name
  in
  match a.Ast_extract.a_structure with
  | None -> []
  | Some st ->
      let global_names =
        List.sort_uniq compare
          (List.concat_map
             (fun (g : Ast_extract.global) ->
               [ g.Ast_extract.g_name; last_component g.Ast_extract.g_name ])
             a.Ast_extract.a_globals)
      in
      List.map
        (fun (e : Escape.finding) ->
          of_finding "allow-escape" e.Escape.f_file e.Escape.f_line e.Escape.f_message)
        (Escape.analyze ~path:a.Ast_extract.a_path ~global_names st)

let rule_dead_export r summaries =
  List.map
    (fun (f : Dead_export.finding) ->
      of_finding "dead-export" f.Dead_export.f_file f.Dead_export.f_line
        f.Dead_export.f_message)
    (Dead_export.analyze r summaries)

(* --- driver ------------------------------------------------------------ *)

let suppress (summaries : Ast_extract.t list) violations =
  let pragmas = Hashtbl.create 256 in
  List.iter
    (fun (a : Ast_extract.t) ->
      Hashtbl.replace pragmas a.Ast_extract.a_path a.Ast_extract.a_pragmas)
    summaries;
  let matching viol =
    List.find_opt
      (fun (p : Ast_extract.pragma) ->
        (p.Ast_extract.pragma_rule = viol.v_rule
        || p.Ast_extract.pragma_rule = "*")
        && (p.Ast_extract.pragma_file_level
           || viol.v_line = p.Ast_extract.pragma_line
           || viol.v_line = p.Ast_extract.pragma_line + 1))
      (Option.value (Hashtbl.find_opt pragmas viol.v_file) ~default:[])
  in
  List.partition_map
    (fun viol ->
      match matching viol with
      | None -> Left viol
      | Some p -> Right (viol, p))
    violations

let run (files : Source.file list) =
  let files =
    List.sort (fun (a : Source.file) b -> compare a.Source.path b.Source.path) files
  in
  let summaries =
    List.filter_map
      (fun (f : Source.file) ->
        if f.Source.kind = Source.Dune then None
        else Some (Ast_extract.of_source ~path:f.Source.path f.Source.content))
      files
  in
  let r = Resolve.create summaries in
  let g = Dep_graph.build r summaries files in
  let mint_names = mint_names summaries in
  let per_node =
    List.concat_map
      (fun n ->
        rule_capsule_layering n @ rule_userland_internals n
        @ rule_crypto_confinement n @ rule_mint_confinement r mint_names n
        @ rule_obj_magic n @ rule_warning_suppression n
        @ rule_subslice_escape n @ rule_capsule_byte_copy n
        @ rule_capsule_raw_print n @ rule_take_without_restore n
        @ rule_fleet_metric_namespace n @ rule_lint_parse n)
      g.Dep_graph.nodes
  in
  let per_stanza =
    List.concat_map
      (fun d -> rule_dune_layering d @ rule_unused_lib_dep g d)
      g.Dep_graph.stanzas
  in
  let dirs =
    List.sort_uniq compare
      (List.map (fun d -> d.Dep_graph.dune_dir) g.Dep_graph.stanzas)
  in
  let per_dir = List.concat_map (rule_undeclared_dep g) dirs in
  let kernel_ml =
    List.filter
      (fun (a : Ast_extract.t) ->
        in_kernel a.Ast_extract.a_path && Filename.check_suffix a.Ast_extract.a_path ".ml")
      summaries
  in
  let dataflow =
    rule_domain_safety r kernel_ml
    @ List.concat_map rule_allow_escape kernel_ml
    @ rule_dead_export r summaries
  in
  let all = per_node @ per_stanza @ per_dir @ rule_missing_mli g @ dataflow in
  let sorted =
    List.sort
      (fun a b ->
        match compare a.v_file b.v_file with
        | 0 -> (
            match compare a.v_line b.v_line with
            | 0 -> compare a.v_rule b.v_rule
            | c -> c)
        | c -> c)
      all
  in
  let violations, suppressed = suppress summaries sorted in
  { violations; suppressed }
