(* otock-lint's dataflow rules. Synthetic fixtures exercise the Digraph
   kernel, the mutable-state inventory, the domain-safety reachability
   analysis, the allow-window escape analysis and the dead-export rule;
   live-repo gates, over the live run test_analysis shares, assert the
   real tree has no unsuppressed finding and that an injected bug trips
   these rules. *)

open! Helpers
module Source = Tock_analysis.Source
module Ast_extract = Tock_analysis.Ast_extract
module Domain_safety = Tock_analysis.Domain_safety
module Escape = Tock_analysis.Escape
module Dead_export = Tock_analysis.Dead_export
module Resolve = Tock_analysis.Resolve
module Rules = Tock_analysis.Rules
module Digraph = Tock_analysis.Dep_graph.Digraph

let file path content = Source.file ~path ~content

(* --- the deterministic digraph kernel --------------------------------- *)

let test_digraph_diamond () =
  (* 0 -> {1,2} -> 3: both branches reach the join, neither reaches the
     other. *)
  let g = Digraph.make 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 2 3;
  let r = Digraph.reachable g [ 0 ] in
  Alcotest.(check (list bool))
    "from the source" [ true; true; true; true ]
    (Array.to_list r);
  let r1 = Digraph.reachable g [ 1 ] in
  Alcotest.(check (list bool))
    "from one branch" [ false; true; false; true ]
    (Array.to_list r1);
  Alcotest.(check bool) "diamond is acyclic" false (Digraph.has_cycle g);
  (match Digraph.topo_sort g with
  | Some o -> Alcotest.(check (list int)) "canonical order" [ 0; 1; 2; 3 ] o
  | None -> Alcotest.fail "diamond reported cyclic");
  (* duplicate edges collapse *)
  Digraph.add_edge g 0 1;
  Alcotest.(check (list int)) "idempotent add" [ 1; 2 ] (Digraph.succs g 0)

let test_digraph_cycle () =
  let g = Digraph.make 3 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 0;
  Alcotest.(check bool) "cycle detected" true (Digraph.has_cycle g);
  Alcotest.(check bool) "no topo order" true (Digraph.topo_sort g = None);
  (* reachability still terminates on cyclic graphs *)
  let r = Digraph.reachable g [ 1 ] in
  Alcotest.(check (list bool))
    "cycle closure" [ true; true; true ]
    (Array.to_list r)

(* Orienting every random pair low->high yields a DAG; the result must
   depend only on the edge set, never on insertion order. *)
let digraph_det_prop =
  qcheck ~count:100 "digraph: topo order insensitive to insertion order"
    QCheck2.Gen.(list (pair (int_range 0 11) (int_range 0 11)))
    (fun pairs ->
      let edges =
        List.filter_map
          (fun (a, b) ->
            if a = b then None else Some (min a b, max a b))
          pairs
      in
      let build es =
        let g = Digraph.make 12 in
        List.iter (fun (a, b) -> Digraph.add_edge g a b) es;
        g
      in
      let fwd = build edges in
      let rev = build (List.rev edges) in
      let srt = build (List.sort_uniq compare edges) in
      let o g =
        match Digraph.topo_sort g with
        | Some o -> o
        | None -> QCheck2.Test.fail_report "low->high DAG reported cyclic"
      in
      o fwd = o rev
      && o fwd = o srt
      && Digraph.reachable fwd [ 0 ] = Digraph.reachable rev [ 0 ])

(* --- the mutable-state inventory -------------------------------------- *)

let test_inventory_kinds () =
  let a =
    Ast_extract.of_source ~path:"lib/core/x.ml"
      "let hits = ref 0\n\
       let tbl = Hashtbl.create 8\n\
       let buf = Buffer.create 64\n\
       let scratch = Bytes.create 32\n\
       let table = Array.make 4 0\n\
       let guarded = Atomic.make 0\n\
       let lock = Mutex.create ()\n\
       let limit = 42\n"
  in
  Alcotest.(check bool) "parses" true a.Ast_extract.a_parsed;
  let kinds =
    List.map
      (fun (g : Ast_extract.global) ->
        (g.Ast_extract.g_name, Ast_extract.kind_name g.Ast_extract.g_kind))
      (List.sort
         (fun (a : Ast_extract.global) b ->
           compare a.Ast_extract.g_line b.Ast_extract.g_line)
         a.Ast_extract.a_globals)
  in
  Alcotest.(check (list (pair string string)))
    "every mutable kind found, immutables skipped"
    [
      ("hits", "ref");
      ("tbl", "Hashtbl");
      ("buf", "Buffer");
      ("scratch", "bytes buffer");
      ("table", "array");
      ("guarded", "Atomic");
      ("lock", "Mutex");
    ]
    kinds;
  Alcotest.(check bool) "atomic is synchronized" true
    (Ast_extract.kind_is_synchronized Ast_extract.Atomic_cell);
  Alcotest.(check bool) "ref is not" false
    (Ast_extract.kind_is_synchronized Ast_extract.Ref_cell)

(* --- domain-safety reachability --------------------------------------- *)

(* The counter-race shape this analysis was built to catch (and that was
   fixed in Subslice/Emu): a plain ref in a capsule, bumped on a path
   every fleet domain runs. *)
let race_fixture counter =
  [
    file "lib/fleet/fleet.ml" "let run_shard () = Uart_cap.push 3\n";
    file "lib/capsules/uart_cap.ml"
      (counter ^ "let idle = ref 0\nlet push _x = incr pending\n");
  ]

let summaries files =
  List.map
    (fun (f : Source.file) -> Ast_extract.of_source ~path:f.Source.path f.Source.content)
    files

let safety_of files =
  let summaries = summaries files in
  List.map
    (fun (f : Domain_safety.finding) ->
      (f.Domain_safety.f_file, f.Domain_safety.f_line))
    (Domain_safety.analyze (Resolve.create summaries) summaries)

let test_domain_safety_race () =
  (* reached plain ref: flagged at its definition; unreached `idle` is
     not, even though it lives in the same reachable file *)
  Alcotest.(check (list (pair string int)))
    "shared ref flagged, unreached ref not"
    [ ("lib/capsules/uart_cap.ml", 1) ]
    (safety_of (race_fixture "let pending = ref 0\n"));
  (* the fix: same shape behind Atomic is clean *)
  let atomic_fixture =
    [
      file "lib/fleet/fleet.ml" "let run_shard () = Uart_cap.push 3\n";
      file "lib/capsules/uart_cap.ml"
        "let pending = Atomic.make 0\n\
         let idle = ref 0\n\
         let push _x = Atomic.incr pending\n";
    ]
  in
  Alcotest.(check (list (pair string int)))
    "atomic counter is clean" [] (safety_of atomic_fixture)

let test_domain_safety_readonly_table () =
  (* a reachable Array global with no in-place write anywhere is a
     lookup table, not shared mutable state ... *)
  let table_fixture write =
    [
      file "lib/fleet/fleet.ml" "let run_shard () = Codec.enc 1\n";
      file "lib/capsules/codec.ml"
        ("let tbl = Array.make 16 0\nlet enc i = tbl.(i)\n" ^ write);
    ]
  in
  Alcotest.(check (list (pair string int)))
    "read-only table is clean" []
    (safety_of (table_fixture ""));
  (* ... but one mutation witness makes it a race again *)
  Alcotest.(check (list (pair string int)))
    "written table is flagged"
    [ ("lib/capsules/codec.ml", 1) ]
    (safety_of (table_fixture "let upd i v = tbl.(i) <- v\n"))

let test_domain_safety_unreachable () =
  (* mutable state in a file the fleet never reaches is not a race *)
  let files =
    [
      file "lib/fleet/fleet.ml" "let run_shard () = ()\n";
      file "lib/capsules/uart_cap.ml"
        "let pending = ref 0\nlet push _x = incr pending\n";
    ]
  in
  Alcotest.(check (list (pair string int))) "unreached is clean" []
    (safety_of files)

(* --- allow-window escapes --------------------------------------------- *)

let escapes_of src =
  let a = Ast_extract.of_source ~path:"lib/capsules/t.ml" src in
  match a.Ast_extract.a_structure with
  | None -> Alcotest.fail "fixture does not parse"
  | Some st ->
      let globals =
        List.map
          (fun (g : Ast_extract.global) -> g.Ast_extract.g_name)
          a.Ast_extract.a_globals
      in
      List.map
        (fun (f : Escape.finding) -> f.Escape.f_line)
        (Escape.analyze ~path:"lib/capsules/t.ml" ~global_names:globals st)

let test_escape_sinks () =
  let lines =
    escapes_of
      "let stash = ref None\n\
       let tbl = Hashtbl.create 8\n\
       let handle ps slot cell =\n\
      \  Kernel.with_allow_rw ps slot (fun w ->\n\
      \    stash := Some w;\n\
      \    Hashtbl.add tbl 0 w;\n\
      \    let alias = Subslice.clone w in\n\
      \    cell.field <- alias;\n\
      \    Subslice.length w)\n"
  in
  Alcotest.(check (list int))
    "ref, container and field stores flagged (clone alias included)"
    [ 5; 6; 8 ] lines

let test_escape_returns () =
  Alcotest.(check (list int))
    "bare return flagged" [ 2 ]
    (escapes_of "let f ps slot =\n  Kernel.with_allow_ro ps slot (fun w -> w)\n");
  Alcotest.(check (list int))
    "returned closure captures the borrow" [ 2 ]
    (escapes_of
       "let f ps slot =\n\
       \  Kernel.with_allow_ro ps slot (fun w -> fun () -> Subslice.get w 0)\n");
  Alcotest.(check (list int))
    "wrapped return flagged" [ 2 ]
    (escapes_of
       "let f ps slot =\n\
       \  Kernel.with_allow_ro ps slot (fun w -> Some (Subslice.clone w))\n")

let test_escape_clean_use () =
  (* reading inside the closure and returning scalars is the intended
     use; so is holding an allow_window clone in capsule state *)
  Alcotest.(check (list int))
    "in-scope use is clean" []
    (escapes_of
       "let f ps slot =\n\
       \  Kernel.with_allow_ro ps slot (fun w ->\n\
       \    let n = Subslice.length w in\n\
       \    Subslice.get w 0 + n)\n");
  Alcotest.(check (list int))
    "allow_window into instance state is sanctioned" []
    (escapes_of
       "let f t ps slot =\n\
       \  match Kernel.allow_window ps slot with\n\
       \  | Some w -> t.held <- Some w\n\
       \  | None -> ()\n")

let test_escape_global_stash () =
  Alcotest.(check (list int))
    "allow_window into a module global is flagged" [ 4 ]
    (escapes_of
       "let win = ref None\n\
        let f ps slot =\n\
       \  match Kernel.allow_window ps slot with\n\
       \  | Some w -> win := Some w\n\
       \  | None -> ()\n");
  (* a with_allow borrow elsewhere reusing the name `w` must not taint
     this store (the name-collision false positive) *)
  Alcotest.(check (list int))
    "unrelated same-named borrow does not taint" []
    (escapes_of
       "let cache = ref None\n\
        let g ps slot =\n\
       \  Kernel.with_allow_ro ps slot (fun w -> Subslice.length w)\n\
        let h x = cache := Some x\n")

(* --- dead exports ------------------------------------------------------ *)

let dead_findings files =
  let summaries = summaries files in
  Dead_export.analyze (Resolve.create summaries) summaries

(* The exports [Dead_export] flags in a fixture tree, as ["M.x"]. *)
let dead_of files =
  List.map
    (fun (f : Dead_export.finding) ->
      match String.split_on_char '`' f.Dead_export.f_message with
      | _ :: name :: _ -> name
      | _ -> f.Dead_export.f_message)
    (dead_findings files)

(* A library unit exporting [vals] (each an int). *)
let lib_unit path vals =
  let base = Filename.remove_extension path in
  [
    file (base ^ ".mli")
      (String.concat "" (List.map (fun v -> "val " ^ v ^ " : int\n") vals));
    file (base ^ ".ml")
      (String.concat "" (List.map (fun v -> "let " ^ v ^ " = 1\n") vals));
  ]

let test_dead_alias () =
  Alcotest.(check (list string))
    "a use through a module alias keeps the export" [ "Foo.unused" ]
    (dead_of
       (lib_unit "lib/core/foo.ml" [ "used"; "unused" ]
       @ [ file "test/test_x.ml" "module F = Tock.Foo\nlet _ = F.used\n" ]))

let test_dead_local_open () =
  Alcotest.(check (list string))
    "let open and M.(...) pin bare names; a parameter shadows them"
    [ "Reg.c" ]
    (dead_of
       (lib_unit "lib/hw/reg.ml" [ "a"; "b"; "c" ]
       @ [
           file "bin/x.ml"
             "let f () = let open Tock_hw.Reg in a\n\
              let g () = Tock_hw.Reg.(b + 1)\n\
              let h () = Tock_hw.Reg.(fun c -> c + a)\n";
         ]))

let test_dead_include () =
  (* Tock.Crc re-exports Tock_crypto.Crc (the Tock.Crc16 shape), and a
     test helper includes a unit wholesale: a use through either names
     the included definition *)
  Alcotest.(check (list string))
    "include and include module type of are one export"
    [ "Crc.unused"; "Reg.b" ]
    (dead_of
       (lib_unit "lib/crypto/crc.ml" [ "crc"; "unused" ]
       @ lib_unit "lib/hw/reg.ml" [ "a"; "b" ]
       @ [
           file "lib/core/crc.mli" "include module type of Tock_crypto.Crc\n";
           file "lib/core/crc.ml" "include Tock_crypto.Crc\n";
           file "test/helpers.ml" "include Tock_hw.Reg\n";
           file "test/test_x.ml" "let _ = Tock.Crc.crc + Helpers.a\n";
         ]))

let test_dead_submodule () =
  Alcotest.(check (list string))
    "values of a nested signature are exports" [ "M.Accum.drop" ]
    (dead_of
       [
         file "lib/obs/m.mli"
           "module Accum : sig\n  val add : int -> int\n  val drop : int -> int\nend\n";
         file "lib/obs/m.ml"
           "module Accum = struct\n  let add x = x\n  let drop x = add x\nend\n";
         file "bench/b.ml" "let f x = Tock_obs.M.Accum.add x\n";
       ])

let test_dead_test_only_use () =
  let fixture =
    [
      file "lib/fleet/cal.mli" "val size : int\nval inner : int\nval gone : int\n";
      file "lib/fleet/cal.ml" "let inner = 1\nlet size = inner + 1\nlet gone = 3\n";
      file "test/test_cal.ml" "let () = ignore Tock_fleet.Cal.size\n";
    ]
  in
  Alcotest.(check (list string))
    "a test is a user; own-module uses are not" [ "Cal.inner"; "Cal.gone" ]
    (dead_of fixture);
  let messages =
    List.map (fun (f : Dead_export.finding) -> f.Dead_export.f_message)
      (dead_findings fixture)
  in
  Alcotest.(check (list string))
    "each finding names its fix"
    [
      "`Cal.inner` is exported but used only inside `Cal`: drop it from \
       `Cal`'s `.mli`";
      "`Cal.gone` is exported but unused: delete it";
    ]
    messages

let test_dead_indexing_operator () =
  (* [a.%{i}] and [a.M.%{i} <- v] are parser desugarings with ghost
     locations, yet each names the operator it applies *)
  Alcotest.(check (list string))
    "a user-defined indexing operator is used by its sugar" [ "Vec.unused" ]
    (dead_of
       [
         file "lib/obs/vec.mli"
           "val ( .%{} ) : int array -> int -> int\n\
            val ( .%{}<- ) : int array -> int -> int -> unit\n\
            val unused : int\n";
         file "lib/obs/vec.ml"
           "let ( .%{} ) a i = a.(i)\n\
            let ( .%{}<- ) a i v = a.(i) <- v\n\
            let unused = 1\n";
         file "bench/b.ml"
           "let f a = Tock_obs.Vec.(a.%{0})\n\
            let g a = a.Tock_obs.Vec.%{0} <- 1\n";
       ])

let test_dead_same_name () =
  (* two units export the same name and each uses its own inside: a
     name search sees both as used, the resolver sees one *)
  Alcotest.(check (list string))
    "only the unit a path names is used" [ "Emu.copied_bytes" ]
    (dead_of
       [
         file "lib/core/subslice.mli" "val copied_bytes : unit -> int\n";
         file "lib/core/subslice.ml"
           "let n = ref 0\nlet copied_bytes () = !n\nlet f () = copied_bytes ()\n";
         file "lib/userland/emu.mli" "val copied_bytes : unit -> int\n";
         file "lib/userland/emu.ml"
           "let n = ref 0\nlet copied_bytes () = !n\nlet f () = copied_bytes ()\n";
         file "test/test_x.ml" "let _ = Tock.Subslice.copied_bytes ()\n";
       ])

let test_dead_comment_string () =
  Alcotest.(check (list string))
    "a mention in a comment or a string is not a use" [ "Uart.baud" ]
    (dead_of
       (lib_unit "lib/hw/uart.ml" [ "baud" ]
       @ [
           file "examples/e.ml"
             "(* Tock_hw.Uart.baud is the line rate *)\n\
              let s = \"Tock_hw.Uart.baud\"\n\
              let t = {|Uart.baud|}\n";
         ]))

(* --- through the one pass ------------------------------------------------ *)

let test_check_pragma_and_parse () =
  let bad = file "lib/capsules/broken.ml" "let = syntax error\n" in
  let racy =
    [
      file "lib/fleet/fleet.ml" "let run_shard () = Uart_cap.push 3\n";
      file "lib/capsules/uart_cap.ml"
        "(* otock-lint: allow domain-safety test justification *)\n\
         let pending = ref 0\n\
         let push _x = incr pending\n";
      bad;
    ]
  in
  let r = Rules.run racy in
  (* the fixture has no interfaces: [missing-mli] is not what it tests *)
  let rules vs =
    List.filter (( <> ) "missing-mli")
      (List.map (fun (v : Rules.violation) -> v.Rules.v_rule) vs)
  in
  Alcotest.(check (list string))
    "pragma suppresses the race; broken file is a finding"
    [ "lint-parse" ] (rules r.Rules.violations);
  Alcotest.(check (list string)) "suppression recorded" [ "domain-safety" ]
    (rules (List.map fst r.Rules.suppressed))

(* --- the live repository ---------------------------------------------- *)

let test_live_repo_gate_trips () =
  (* the injected window-stashing capsule, its stash reachable from
     fleet.ml, trips both the escape and the race rule *)
  Test_analysis.check_injection_trips [ "allow-escape"; "domain-safety" ]

let suite =
  [
    Alcotest.test_case "digraph diamond" `Quick test_digraph_diamond;
    Alcotest.test_case "digraph cycle" `Quick test_digraph_cycle;
    digraph_det_prop;
    Alcotest.test_case "mutable-state inventory" `Quick test_inventory_kinds;
    Alcotest.test_case "domain-safety race" `Quick test_domain_safety_race;
    Alcotest.test_case "read-only table" `Quick
      test_domain_safety_readonly_table;
    Alcotest.test_case "unreachable state" `Quick
      test_domain_safety_unreachable;
    Alcotest.test_case "escape sinks" `Quick test_escape_sinks;
    Alcotest.test_case "escape returns" `Quick test_escape_returns;
    Alcotest.test_case "clean window use" `Quick test_escape_clean_use;
    Alcotest.test_case "global window stash" `Quick test_escape_global_stash;
    Alcotest.test_case "dead-export: module alias" `Quick test_dead_alias;
    Alcotest.test_case "dead-export: let open, M.(...)" `Quick
      test_dead_local_open;
    Alcotest.test_case "dead-export: include re-export" `Quick
      test_dead_include;
    Alcotest.test_case "dead-export: submodule value" `Quick
      test_dead_submodule;
    Alcotest.test_case "dead-export: test-only use" `Quick
      test_dead_test_only_use;
    Alcotest.test_case "dead-export: indexing operator" `Quick
      test_dead_indexing_operator;
    Alcotest.test_case "dead-export: same-named exports" `Quick
      test_dead_same_name;
    Alcotest.test_case "dead-export: comment or string" `Quick
      test_dead_comment_string;
    Alcotest.test_case "pragma + parse failure" `Quick
      test_check_pragma_and_parse;
    (* one pass, one suppression: the same gate as the analysis suite's *)
    Alcotest.test_case "live repo matches check baseline" `Quick
      Test_analysis.test_live_repo_matches_baseline;
    Alcotest.test_case "check gate trips on injection" `Quick
      test_live_repo_gate_trips;
  ]
