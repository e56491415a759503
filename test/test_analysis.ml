(* otock-lint's one pass: synthetic fixtures exercising each
   architecture rule and the pragma machinery, and live-repo gates over
   one shared run asserting that the tree has no unsuppressed finding,
   that every pragma still suppresses a finding and that an injected bug
   trips the gate —
   this is what makes the lint tier-1 under `dune runtest`. The
   dataflow rules' fixtures and gates are in test_check. *)

module Taxonomy = Tock_analysis.Taxonomy
module Source = Tock_analysis.Source
module Ast_extract = Tock_analysis.Ast_extract
module Rules = Tock_analysis.Rules

let file path content = Source.file ~path ~content

(* A minimal well-formed core so fixtures resolve `open Tock` and have
   the sibling modules the real tree has. *)
let core_fixture =
  [
    file "lib/core/kernel.ml" "let tick () = ()\n";
    file "lib/core/kernel.mli" "val tick : unit -> unit\n";
    file "lib/core/hil.ml" "type alarm = unit\n";
    file "lib/core/hil.mli" "type alarm = unit\n";
    file "lib/core/dune" "(library\n (name tock))\n";
    file "lib/hw/uart.ml" "let write () = ()\n";
    file "lib/hw/uart.mli" "val write : unit -> unit\n";
    file "lib/hw/dune" "(library\n (name tock_hw))\n";
  ]

(* The rule ids the pass reports, less [dead-export]: these fixtures
   declare values no other fixture file names (the rule has its own
   fixtures in test_check). *)
let rules_of files =
  let r = Rules.run files in
  List.filter (( <> ) "dead-export")
    (List.map (fun (v : Rules.violation) -> v.Rules.v_rule) r.Rules.violations)

let count_rule rule files =
  List.length (List.filter (( = ) rule) (rules_of files))

(* --- per-rule fixtures ------------------------------------------------ *)

let test_layering_breach () =
  (* A capsule reaching the chip layer directly, three ways: qualified
     ref, open, and dune dependency. *)
  let files =
    core_fixture
    @ [
        file "lib/capsules/bad.ml"
          "let go () = Tock_hw.Uart.write ()\n";
        file "lib/capsules/bad.mli" "val go : unit -> unit\n";
        file "lib/capsules/dune"
          "(library\n (name tock_capsules)\n (libraries tock tock_hw))\n";
      ]
  in
  Alcotest.(check int) "qualified ref flagged" 1
    (count_rule "capsule-layering" files);
  Alcotest.(check int) "dune dep flagged" 1 (count_rule "dune-layering" files);
  (* The same breach behind a local open, and after a comment quoting
     the comment opener: neither may hide the reference. *)
  let capsule body =
    core_fixture
    @ [
        file "lib/capsules/bad.ml" body;
        file "lib/capsules/bad.mli" "val go : unit -> unit\n";
      ]
  in
  Alcotest.(check int) "local open flagged" 1
    (count_rule "capsule-layering"
       (capsule "let go () = Tock_hw.(Uart.write ())\n"));
  Alcotest.(check int) "ref after a quoted comment opener flagged" 1
    (count_rule "capsule-layering"
       (capsule
          "(* the opener is \"(*\" *)\nlet go () = Tock_hw.Uart.write ()\n"));
  (* The same capsule going through the HIL is clean. *)
  let ok =
    core_fixture
    @ [
        file "lib/capsules/good.ml"
          "open Tock\nlet go (a : Hil.alarm) = ignore a; Kernel.tick ()\n";
        file "lib/capsules/good.mli" "val go : Tock.Hil.alarm -> unit\n";
        file "lib/capsules/dune"
          "(library\n (name tock_capsules)\n (libraries tock))\n";
      ]
  in
  Alcotest.(check (list string)) "hil-only capsule is clean" [] (rules_of ok)

let test_forged_mint () =
  let files =
    core_fixture
    @ [
        file "lib/capsules/evil.ml"
          "let cap () = Capability.Trusted_mint.main_loop ()\n";
        file "lib/capsules/evil.mli" "val cap : unit -> unit\n";
        file "lib/capsules/dune"
          "(library\n (name tock_capsules)\n (libraries tock))\n";
      ]
  in
  Alcotest.(check int) "forged mint flagged" 1
    (count_rule "mint-confinement" files);
  (* Boards and tests may mint. *)
  let board =
    core_fixture
    @ [
        file "lib/boards/board.ml"
          "let cap () = Capability.Trusted_mint.main_loop ()\n";
        file "lib/boards/board.mli" "val cap : unit -> unit\n";
        file "lib/boards/dune"
          "(library\n (name tock_boards)\n (libraries tock))\n";
      ]
  in
  Alcotest.(check int) "board may mint" 0 (count_rule "mint-confinement" board);
  (* Behind an alias or an open every use pins a mint, so a pragma on
     the alias line hides only that line. *)
  let capsule body =
    core_fixture
    @ [
        file "lib/core/capability.ml"
          "module Trusted_mint = struct\n  let main_loop () = ()\nend\n";
        file "lib/core/capability.mli"
          "module Trusted_mint : sig\n  val main_loop : unit -> unit\nend\n";
        file "lib/capsules/evil.ml" body;
        file "lib/capsules/evil.mli" "val cap : unit -> unit\n";
      ]
  in
  let mint_lines vs =
    List.filter_map
      (fun (v : Rules.violation) ->
        if v.Rules.v_rule = "mint-confinement" then Some v.Rules.v_line else None)
      vs
  in
  let r =
    Rules.run
      (capsule
         "(* otock-lint: allow mint-confinement -- the alias only *)\n\
          module M = Tock.Capability.Trusted_mint\n\
          let cap () = M.main_loop ()\n\
          let again () = M.main_loop ()\n")
  in
  Alcotest.(check (list int)) "both uses through the alias flagged" [ 3; 4 ]
    (mint_lines r.Rules.violations);
  Alcotest.(check (list int)) "the alias line suppressed" [ 2 ]
    (mint_lines (List.map fst r.Rules.suppressed));
  Alcotest.(check (list int)) "a use under an open flagged" [ 2 ]
    (mint_lines
       (Rules.run
          (capsule
             "open Tock.Capability.Trusted_mint\nlet cap () = main_loop ()\n"))
         .Rules.violations)

let test_missing_mli () =
  let files =
    core_fixture @ [ file "lib/capsules/naked.ml" "let x = 1\n" ]
  in
  Alcotest.(check int) "missing mli flagged" 1 (count_rule "missing-mli" files)

let test_take_without_restore () =
  let bad =
    core_fixture
    @ [
        file "lib/capsules/leaky.ml"
          "let f c = match Cells.Take_cell.take c with Some b -> ignore b | \
           None -> ()\n";
        file "lib/capsules/leaky.mli" "val f : 'a -> unit\n";
      ]
  in
  Alcotest.(check int) "take without restore flagged" 1
    (count_rule "take-without-restore" bad);
  let good =
    core_fixture
    @ [
        file "lib/capsules/careful.ml"
          "let f c = match Cells.Take_cell.take c with Some b -> \
           Cells.Take_cell.put c b | None -> ()\n";
        file "lib/capsules/careful.mli" "val f : 'a -> unit\n";
      ]
  in
  Alcotest.(check int) "take with put is clean" 0
    (count_rule "take-without-restore" good)

let test_capsule_byte_copy () =
  (* A capsule copying payload with Bytes.sub/Bytes.copy is flagged; the
     same code with a justifying pragma, or in non-capsule code, is not. *)
  let bad =
    core_fixture
    @ [
        file "lib/capsules/copier.ml"
          "let f b = Bytes.sub b 0 4\nlet g b = Bytes.copy b\n";
        file "lib/capsules/copier.mli"
          "val f : bytes -> bytes\nval g : bytes -> bytes\n";
      ]
  in
  Alcotest.(check int) "sub and copy flagged" 2
    (count_rule "capsule-byte-copy" bad);
  let pragmad =
    core_fixture
    @ [
        file "lib/capsules/justified.ml"
          "(* otock-lint: allow capsule-byte-copy compaction snapshot *)\n\
           let f b = Bytes.sub b 0 4\n";
        file "lib/capsules/justified.mli" "val f : bytes -> bytes\n";
      ]
  in
  Alcotest.(check int) "pragma suppresses" 0
    (count_rule "capsule-byte-copy" pragmad);
  let core =
    core_fixture
    @ [
        file "lib/core/staging.ml" "let f b = Bytes.sub b 0 4\n";
        file "lib/core/staging.mli" "val f : bytes -> bytes\n";
      ]
  in
  Alcotest.(check int) "core code not in scope" 0
    (count_rule "capsule-byte-copy" core)

let test_capsule_raw_print () =
  (* Kernel/capsule code writing to the host console directly — via
     Printf/Format or the bare Stdlib print idents — is flagged;
     Debug_writer itself and pragma'd call sites are not. *)
  let bad =
    core_fixture
    @ [
        file "lib/capsules/chatty.ml"
          "let f () = Printf.printf \"hi\"\nlet g () = print_endline \"yo\"\n";
        file "lib/capsules/chatty.mli"
          "val f : unit -> unit\nval g : unit -> unit\n";
        file "lib/core/loud.ml" "let h () = Format.eprintf \"oops\"\n";
        file "lib/core/loud.mli" "val h : unit -> unit\n";
      ]
  in
  Alcotest.(check int) "printf, bare print, eprintf flagged" 3
    (count_rule "capsule-raw-print" bad);
  let exempt =
    core_fixture
    @ [
        file "lib/capsules/debug_writer.ml"
          "let f () = Printf.printf \"debug sink\"\n";
        file "lib/capsules/debug_writer.mli" "val f : unit -> unit\n";
        file "lib/capsules/justified.ml"
          "(* otock-lint: allow capsule-raw-print boot banner *)\n\
           let f () = print_endline \"boot\"\n";
        file "lib/capsules/justified.mli" "val f : unit -> unit\n";
        (* sprintf formats a string without touching the console *)
        file "lib/capsules/quiet.ml"
          "let f () = Printf.sprintf \"x=%d\" 3\n";
        file "lib/capsules/quiet.mli" "val f : unit -> string\n";
      ]
  in
  Alcotest.(check int) "debug_writer, pragma, sprintf all clean" 0
    (count_rule "capsule-raw-print" exempt);
  (* Board-layer code is outside the rule's scope. *)
  let board =
    core_fixture
    @ [
        file "lib/boards/panic.ml" "let f () = print_endline \"panic\"\n";
        file "lib/boards/panic.mli" "val f : unit -> unit\n";
        file "lib/boards/dune" "(library\n (name tock_boards)\n (libraries tock))\n";
      ]
  in
  Alcotest.(check int) "boards not in scope" 0
    (count_rule "capsule-raw-print" board)

let test_unsafe_analogues () =
  let files =
    core_fixture
    @ [
        file "lib/capsules/sketchy.ml"
          "let f (x : int) = (Obj.magic x : string)\n\
           let g s = Subslice.underlying s\n\
           let h = 1 [@warning \"-32\"]\n";
        file "lib/capsules/sketchy.mli"
          "val f : int -> string\n\nval g : 'a -> 'b\n\nval h : int\n";
      ]
  in
  Alcotest.(check int) "Obj.magic flagged" 1 (count_rule "obj-magic" files);
  Alcotest.(check int) "subslice escape flagged" 1
    (count_rule "subslice-escape" files);
  Alcotest.(check int) "warning suppression flagged" 1
    (count_rule "warning-suppression" files);
  (* The same constructs inside the trusted hw layer are the point of
     having a trusted layer. *)
  let hw =
    core_fixture
    @ [
        file "lib/hw/dma.ml"
          "let g s = Subslice.underlying s\nlet f x = Obj.magic x\n";
        file "lib/hw/dma.mli" "val g : 'a -> 'b\n\nval f : 'a -> 'b\n";
      ]
  in
  Alcotest.(check int) "trusted hw exempt (escape)" 0
    (count_rule "subslice-escape" hw);
  Alcotest.(check int) "trusted hw exempt (magic)" 0 (count_rule "obj-magic" hw)

let test_crypto_and_userland () =
  let files =
    core_fixture
    @ [
        file "lib/crypto/aes.ml" "let k = 1\n";
        file "lib/crypto/aes.mli" "val k : int\n";
        file "lib/crypto/dune" "(library\n (name tock_crypto))\n";
        file "lib/capsules/roll_your_own.ml"
          "let f () = Tock_crypto.Aes.k\n";
        file "lib/capsules/roll_your_own.mli" "val f : unit -> int\n";
        file "lib/userland/nosy.ml"
          "let f () = Tock.Kernel.tick ()\nlet ok (_ : Tock.Syscall.t) = ()\n";
        file "lib/userland/nosy.mli" "val f : unit -> unit\n\nval ok : 'a -> unit\n";
      ]
  in
  (* the capsule's crypto ref violates both confinement and layering *)
  Alcotest.(check int) "crypto confinement flagged" 1
    (count_rule "crypto-confinement" files);
  Alcotest.(check int) "userland internals flagged (Kernel, not Syscall)" 1
    (count_rule "userland-kernel-internals" files)

let test_dep_hygiene () =
  let files =
    core_fixture
    @ [
        file "lib/capsules/quiet.ml" "let x = Tock.Kernel.tick\n";
        file "lib/capsules/quiet.mli" "val x : unit -> unit\n";
        file "lib/capsules/dune"
          "(library\n (name tock_capsules)\n (libraries tock tock_tbf))\n";
        file "lib/tbf/tbf.ml" "let parse () = ()\n";
        file "lib/tbf/tbf.mli" "val parse : unit -> unit\n";
        file "lib/tbf/dune" "(library\n (name tock_tbf))\n";
      ]
  in
  (* tock_tbf is within the capsule layering matrix but unreferenced *)
  Alcotest.(check int) "unused dep flagged" 1
    (count_rule "unused-lib-dep" files);
  let undeclared =
    core_fixture
    @ [
        file "lib/capsules/sneaky.ml" "let f () = Tock_tbf.Tbf.parse ()\n";
        file "lib/capsules/sneaky.mli" "val f : unit -> unit\n";
        file "lib/capsules/dune"
          "(library\n (name tock_capsules)\n (libraries tock))\n";
        file "lib/tbf/tbf.ml" "let parse () = ()\n";
        file "lib/tbf/tbf.mli" "val parse : unit -> unit\n";
        file "lib/tbf/dune" "(library\n (name tock_tbf))\n";
      ]
  in
  Alcotest.(check int) "undeclared transitive dep flagged" 1
    (count_rule "undeclared-dep" undeclared)

let test_pragma_allowlist () =
  let files =
    core_fixture
    @ [
        file "lib/capsules/justified.ml"
          "(* otock-lint: allow capsule-layering -- timing calibration \
           needs the raw counter *)\n\
           let f () = Tock_hw.Uart.write ()\n";
        file "lib/capsules/justified.mli" "val f : unit -> unit\n";
        file "lib/capsules/dune"
          "(library\n (name tock_capsules)\n (libraries tock tock_hw))\n";
      ]
  in
  let r = Rules.run files in
  let rules =
    List.map (fun (v : Rules.violation) -> v.Rules.v_rule) r.Rules.violations
  in
  Alcotest.(check bool) "source site suppressed" false
    (List.mem "capsule-layering" rules);
  Alcotest.(check int) "suppression recorded" 1
    (List.length r.Rules.suppressed);
  (match r.Rules.suppressed with
  | [ (_, p) ] ->
      Alcotest.(check string) "justification kept"
        "timing calibration needs the raw counter" p.Ast_extract.pragma_note
  | _ -> Alcotest.fail "expected exactly one suppression");
  (* dune deps cannot be pragma'd away *)
  Alcotest.(check int) "dune dep still flagged" 1
    (List.length (List.filter (( = ) "dune-layering") rules))

let test_comment_and_string_blindness () =
  (* References inside comments and strings are not references. *)
  let files =
    core_fixture
    @ [
        file "lib/capsules/chatty.ml"
          "(* Tock_hw.Uart.write is what we must NOT call *)\n\
           let doc = \"see Tock_hw.Uart.write and Obj.magic\"\n";
        file "lib/capsules/chatty.mli" "val doc : string\n";
      ]
  in
  Alcotest.(check (list string)) "no violations from comments/strings" []
    (rules_of files)

let test_scoped_open () =
  (* `let open M in` and `M.(...)` are expression-scoped: they still
     resolve the references under them, but are not the file importing M
     wholesale, so a scoped convenience open must not trip the
     wholesale-open rules. *)
  let opens src =
    (Ast_extract.of_source ~path:"lib/userland/u.ml" src).Ast_extract.a_opens
  in
  (match opens "let f () =\n  let open Tock in\n  Syscall.yield ()\n" with
  | [ o ] ->
      Alcotest.(check bool) "marked scoped" true o.Ast_extract.open_scoped;
      Alcotest.(check int) "on its line" 2
        o.Ast_extract.open_path.Ast_extract.p_line
  | os -> Alcotest.failf "expected one open, got %d" (List.length os));
  (match opens "let f () = Tock.(Syscall.yield ())\n" with
  | [ o ] ->
      Alcotest.(check bool) "local open is scoped" true o.Ast_extract.open_scoped
  | os -> Alcotest.failf "expected one open, got %d" (List.length os));
  (match opens "open Tock\nlet f () = Syscall.yield ()\n" with
  | [ o ] ->
      Alcotest.(check bool) "toplevel is not scoped" false
        o.Ast_extract.open_scoped
  | os -> Alcotest.failf "expected one open, got %d" (List.length os));
  (* through the rules: a scoped open of Tock inside userland code is
     not a wholesale import, a toplevel one still is *)
  let core = core_fixture @ [ file "lib/core/syscall.ml" "let yield () = ()\n" ] in
  let with_open body =
    core
    @ [
        file "lib/userland/u.ml" body;
        file "lib/userland/u.mli" "val f : unit -> unit\n";
      ]
  in
  Alcotest.(check int) "scoped open is clean" 0
    (count_rule "userland-kernel-internals"
       (with_open "let f () =\n  let open Tock in\n  Syscall.yield ()\n"));
  Alcotest.(check int) "wholesale open still flagged" 1
    (count_rule "userland-kernel-internals"
       (with_open "open Tock\n\nlet f () = Syscall.yield ()\n"))

(* Every position a path can be written in reaches the summary, once,
   with its kind. A lost path would only mean fewer
   violations, so this pins what the front end extracts. *)
let test_extraction_coverage () =
  let kind = function
    | Ast_extract.Value -> "value"
    | Ast_extract.Constructor -> "constructor"
    | Ast_extract.Field -> "field"
    | Ast_extract.Type -> "type"
    | Ast_extract.Module -> "module"
    | Ast_extract.Module_type -> "module type"
  in
  let path (p : Ast_extract.path) =
    Printf.sprintf "%d %s %s%s" p.Ast_extract.p_line (kind p.Ast_extract.p_kind)
      (String.concat "." p.Ast_extract.p_path)
      (match p.Ast_extract.p_literal with
      | Some l -> Printf.sprintf " %S" l
      | None -> "")
  in
  let show (a : Ast_extract.t) =
    List.map path a.Ast_extract.a_paths
    @ List.map
        (fun (o : Ast_extract.open_decl) ->
          "open " ^ path o.Ast_extract.open_path
          ^ if o.Ast_extract.open_scoped then " scoped" else "")
        a.Ast_extract.a_opens
    @ List.map
        (fun (at : Ast_extract.attribute) ->
          Printf.sprintf "%d attr %s" at.Ast_extract.attr_line
            at.Ast_extract.attr_text)
        a.Ast_extract.a_attributes
    @ List.map
        (fun (p : Ast_extract.pragma) ->
          Printf.sprintf "%d pragma %s" p.Ast_extract.pragma_line
            p.Ast_extract.pragma_rule)
        a.Ast_extract.a_pragmas
  in
  let ml =
    Ast_extract.of_source ~path:"lib/capsules/cover.ml"
      "open A.Opened\n\
       include B.Included\n\
       module C = C1.Alias (C2.Arg)\n\
       module type S = D.Sig\n\
       type t = E.ty\n\
       let v = F.value\n\
       let c = G.Ctor\n\
       let f r = r.H.field\n\
       let p { I.punned } = punned\n\
       let l = let open J.Local in x\n\
       let m = K.(y)\n\
       let a = 1 [@warning \"-32\"]\n\
       let r = L.register reg \"name\"\n\
       (** otock-lint: allow rule-x doc pragma *)\n\
       let d = a.(0)\n\
       exception E = V.Exn\n\
       type W.ext += X\n\
       module type S2 = X.S with module M = Y.Impl\n\
       let o = new N.cls\n\
       let pv = function #Pv.t -> 0\n"
  in
  Alcotest.(check (list string))
    ".ml: every position, no desugared Array.get"
    [
      "3 module C1.Alias"; "3 module C2.Arg"; "4 module type D.Sig";
      "5 type E.ty"; "6 value F.value"; "7 constructor G.Ctor"; "8 value r";
      "8 field H.field"; "9 field I.punned"; "9 value punned";
      "10 module J.Local"; "10 value x"; "11 module K"; "11 value y";
      "13 value L.register \"name\""; "13 value reg"; "15 value a";
      "16 constructor V.Exn"; "17 type W.ext"; "18 module type X.S";
      "18 module M"; "18 module Y.Impl"; "19 type N.cls"; "20 type Pv.t";
      "open 1 module A.Opened"; "open 2 module B.Included";
      "open 10 module J.Local scoped"; "open 11 module K scoped";
      "12 attr [@warning \"-32\"]"; "14 pragma rule-x";
    ]
    (show ml);
  let mli =
    Ast_extract.of_source ~path:"lib/capsules/cover.mli"
      "open M.Opened\n\
       include N.Sig\n\
       type u = O.ty\n\
       val v : P.t -> unit\n\
       module Q : R.Sig\n\
       module S = T.Alias\n\
       (** otock-lint: allow rule-y doc pragma *)\n\
       val w : int [@@warning \"-32\"]\n\
       module Z := Q.Sub\n\
       val pk : (module U.Sig)\n\
       val ob : #Cl.ct\n"
  in
  Alcotest.(check (list string))
    ".mli: every position"
    [
      "3 type O.ty"; "4 type P.t"; "4 type unit"; "5 module type R.Sig";
      "6 module T.Alias"; "8 type int"; "9 module Q.Sub";
      "10 module type U.Sig"; "11 type Cl.ct"; "open 1 module M.Opened";
      "open 2 module type N.Sig"; "8 attr [@@warning \"-32\"]";
      "7 pragma rule-y";
    ]
    (show mli)

let test_lint_parse () =
  (* A file the parser rejects yields no paths, so every rule would
     pass it: the gate reports the file itself instead. *)
  let files =
    core_fixture
    @ [
        file "lib/capsules/broken.ml" "let f () = Tock_hw.Uart.write (\n";
        file "lib/capsules/broken.mli" "val f : unit -> unit\n";
      ]
  in
  Alcotest.(check (list string)) "one lint-parse finding" [ "lint-parse" ]
    (rules_of files)

let test_quoted_string_blindness () =
  (* Quoted strings are opaque too, including one whose body starts
     with `}` (the opener's pipe plus that brace must not read as the
     closer). *)
  let files =
    core_fixture
    @ [
        file "lib/capsules/quoted.ml"
          "let doc = {|see Tock_hw.Uart.write and Obj.magic|}\n\
           let edge = {|}Tock_hw.Uart.write ()|}\n\
           let tagged = {frame|}Obj.magic|frame}\n";
        file "lib/capsules/quoted.mli"
          "val doc : string\n\nval edge : string\n\nval tagged : string\n";
      ]
  in
  Alcotest.(check (list string)) "no violations from quoted strings" []
    (rules_of files)

(* --- the live repository ---------------------------------------------- *)

let live_root () =
  match Source.find_root () with
  | Some r -> r
  | None -> Alcotest.fail "cannot locate repository root from test cwd"

(* The live tree through the one pass, run once and shared by every
   live-tree gate here and in test_check. *)
type live = { root : string; files : Source.file list; result : Rules.result }

let live =
  lazy
    (let root = live_root () in
     let files = Source.scan ~root in
     { root; files; result = Rules.run files })

(* The live tree's baseline is zero: no unsuppressed finding of any
   rule. The in-source pragma is the only suppression. *)
let test_live_repo_matches_baseline () =
  let { files; result = r; _ } = Lazy.force live in
  Alcotest.(check bool) "scan finds the tree" true (List.length files > 100);
  Alcotest.(check (list string))
    "no unsuppressed violation (fix it or allowlist it in source with a \
     justification; see DESIGN.md)"
    []
    (List.map
       (fun (v : Rules.violation) ->
         Printf.sprintf "%s:%d [%s] %s" v.Rules.v_file v.Rules.v_line
           v.Rules.v_rule v.Rules.v_message)
       r.Rules.violations)

let test_no_stale_pragmas () =
  (* Every pragma must still suppress a finding: an allowlist entry
     whose violation is gone is a hole waiting for the next one, and
     one whose rule id names no rule (a typo) never suppressed
     anything. *)
  let { files; result = r; _ } = Lazy.force live in
  let stale =
    List.concat_map
      (fun (f : Source.file) ->
        if f.Source.kind = Source.Dune then []
        else
          (Ast_extract.of_source ~path:f.Source.path f.Source.content)
            .Ast_extract.a_pragmas
          |> List.filter_map (fun (p : Ast_extract.pragma) ->
                 if
                   not
                     (List.exists
                        (fun ((v : Rules.violation), q) ->
                          v.Rules.v_file = f.Source.path && q = p)
                        r.Rules.suppressed)
                 then
                   Some
                     (Printf.sprintf "%s:%d allow %s" f.Source.path
                        p.Ast_extract.pragma_line p.Ast_extract.pragma_rule)
                 else None))
      files
  in
  Alcotest.(check bool) "the tree has pragmas" true (r.Rules.suppressed <> []);
  Alcotest.(check (list string)) "every pragma suppresses a finding" [] stale

(* The acceptance scenario, through the one entry point: the real tree
   with a capsule->hw reference, a forged mint and a window-stashing
   capsule dropped in, its stash reachable from fleet.ml as shared
   state. The rule ids of its unsuppressed findings, run once and shared
   by the injection gates here and in test_check. *)
let injected_new_rules =
  lazy
    (let { files; _ } = Lazy.force live in
     let with_bad =
       List.map
         (fun (f : Source.file) ->
           if f.Source.path = "lib/fleet/fleet.ml" then
             file f.Source.path
               (f.Source.content ^ "\nlet injected () = Injected.stash\n")
           else f)
         files
       @ [
           file "lib/capsules/injected.ml"
             "let f () = Tock_hw.Uart.create ()\n\
              let c () = Capability.Trusted_mint.main_loop ()\n\
              let keep = ref None\n\
              let stash ps slot =\n\
             \  Kernel.with_allow_ro ps slot (fun w -> keep := Some w)\n";
           file "lib/capsules/injected.mli"
             "val f : unit -> unit\n\nval c : unit -> unit\n\n\
              val stash : 'a -> 'b -> unit\n";
         ]
     in
     List.sort_uniq compare
       (List.map
          (fun (v : Rules.violation) -> v.Rules.v_rule)
          (Rules.run with_bad).Rules.violations))

let check_injection_trips rules =
  let new_rules = Lazy.force injected_new_rules in
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " trips the gate") true (List.mem rule new_rules))
    rules

let test_live_repo_gate_trips () =
  check_injection_trips [ "capsule-layering"; "mint-confinement" ]

let test_alias_edges () =
  (* An edge follows a module alias: a pragma on the alias line does not
     hide the uses behind it. A bare [Uart.x] with no open pins nothing
     (it could be any unit named Uart), so it is not an edge. *)
  let capsule body =
    core_fixture
    @ [
        file "lib/capsules/aliased.ml" body;
        file "lib/capsules/aliased.mli" "val f : unit -> unit\n";
      ]
  in
  let r =
    Rules.run
      (capsule
         "(* otock-lint: allow capsule-layering -- the alias only *)\n\
          module U = Tock_hw.Uart\n\
          let f () = U.transmit_segs ()\n\
          let g () = U.transmit_segs ()\n")
  in
  let lines rule vs =
    List.filter_map
      (fun (v : Rules.violation) ->
        if v.Rules.v_rule = rule then Some v.Rules.v_line else None)
      vs
  in
  Alcotest.(check (list int)) "both uses flagged" [ 3; 4 ]
    (lines "capsule-layering" r.Rules.violations);
  Alcotest.(check (list int)) "the alias line suppressed" [ 2 ]
    (lines "capsule-layering" (List.map fst r.Rules.suppressed));
  Alcotest.(check int) "an unpinned head is not an edge" 0
    (count_rule "capsule-layering" (capsule "let f () = Uart.write ()\n"))

let test_opaque_alias_edges () =
  (* An alias of a module whose contents are unknown ([Int_hashtbl.Int]
     is a [Hashtbl.S]) still enters the unit it lives in: every use
     through the alias is an edge to that unit, not only the alias
     line. *)
  let r =
    Rules.run
      (core_fixture
      @ [
          file "lib/core/int_hashtbl.ml" "module Int = Hashtbl.Make (Int)\n";
          file "lib/core/int_hashtbl.mli"
            "module Int : Hashtbl.S with type key = int\n";
          file "lib/userland/tables.ml"
            "module I = Tock.Int_hashtbl.Int\nlet size () = I.length (I.create 8)\n";
          file "lib/userland/tables.mli" "val size : unit -> int\n";
        ])
  in
  Alcotest.(check (list int)) "alias line and use line flagged" [ 1; 2 ]
    (List.sort_uniq compare @@ List.filter_map
       (fun (v : Rules.violation) ->
         if v.Rules.v_rule = "userland-kernel-internals"
            && v.Rules.v_file = "lib/userland/tables.ml"
         then Some v.Rules.v_line
         else None)
       r.Rules.violations)

let test_fleet_metric_namespace () =
  (* Fleet code registering a metric outside fleet.* is flagged — the
     name literal may sit on the registration line or wrap to the next.
     Pragma'd sites and non-fleet code are exempt. *)
  let bad =
    core_fixture
    @ [
        file "lib/fleet/sched.ml"
          "let c = Tock_obs.Metrics.counter reg \"sched.dispatches\"\n\
           let g =\n\
          \  Tock_obs.Metrics.gauge reg\n\
          \    \"boards_live\"\n\
           let ok = Tock_obs.Metrics.histogram reg \"fleet.sched.batch\"\n";
        file "lib/fleet/sched.mli" "val x : int\n";
      ]
  in
  Alcotest.(check int) "bare names flagged (same + next line)" 2
    (count_rule "fleet-metric-namespace" bad);
  (* The name is the call's string argument wherever it sits; mentions
     in comments and strings are not registrations. *)
  let fleet body =
    core_fixture
    @ [
        file "lib/fleet/sched.ml" body;
        file "lib/fleet/sched.mli" "val x : int\n";
      ]
  in
  Alcotest.(check int) "literal two lines below the call flagged" 1
    (count_rule "fleet-metric-namespace"
       (fleet "let g =\n  Tock_obs.Metrics.gauge\n    reg\n    \"boards_live\"\n"));
  Alcotest.(check int) "comment mention not flagged" 0
    (count_rule "fleet-metric-namespace"
       (fleet "(* Metrics.counter reg \"bare\" *)\nlet x = 1\n"));
  Alcotest.(check int) "string mention not flagged" 0
    (count_rule "fleet-metric-namespace"
       (fleet "let x = {|Metrics.counter reg \"bare\"|}\n"));
  let pragmad =
    core_fixture
    @ [
        file "lib/fleet/legacy.ml"
          "(* otock-lint: allow fleet-metric-namespace migration shim *)\n\
           let c = Tock_obs.Metrics.counter reg \"sched.old\"\n";
        file "lib/fleet/legacy.mli" "val c : int\n";
      ]
  in
  Alcotest.(check int) "pragma suppresses" 0
    (count_rule "fleet-metric-namespace" pragmad);
  let elsewhere =
    core_fixture
    @ [
        file "lib/obs/own.ml"
          "let c = Tock_obs.Metrics.counter reg \"kernel.syscalls\"\n";
        file "lib/obs/own.mli" "val c : int\n";
      ]
  in
  Alcotest.(check int) "non-fleet code not in scope" 0
    (count_rule "fleet-metric-namespace" elsewhere)

let test_taxonomy_shared_with_bench () =
  (* The Fig. 5 split and the lint trusted-set are the same function. *)
  Alcotest.(check bool) "hw is trusted" true
    (Taxonomy.trust_of_path "lib/hw/uart.ml" = Taxonomy.Trusted);
  Alcotest.(check bool) "grant machinery is trusted" true
    (Taxonomy.trust_of_path "lib/core/grant.ml" = Taxonomy.Trusted);
  Alcotest.(check bool) "cells are safe" true
    (Taxonomy.trust_of_path "lib/core/cells.ml" = Taxonomy.Safe);
  Alcotest.(check bool) "capsules are safe" true
    (Taxonomy.trust_of_path "lib/capsules/console.ml" = Taxonomy.Safe);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (d ^ " measured by fig5 is linted")
        true
        (List.mem d Taxonomy.scan_dirs))
    Taxonomy.kernel_dirs

let suite =
  [
    Alcotest.test_case "layering breach" `Quick test_layering_breach;
    Alcotest.test_case "forged mint" `Quick test_forged_mint;
    Alcotest.test_case "missing mli" `Quick test_missing_mli;
    Alcotest.test_case "take without restore" `Quick test_take_without_restore;
    Alcotest.test_case "capsule byte copy" `Quick test_capsule_byte_copy;
    Alcotest.test_case "capsule raw print" `Quick test_capsule_raw_print;
    Alcotest.test_case "unsafe analogues" `Quick test_unsafe_analogues;
    Alcotest.test_case "crypto + userland" `Quick test_crypto_and_userland;
    Alcotest.test_case "dep hygiene" `Quick test_dep_hygiene;
    Alcotest.test_case "pragma allowlist" `Quick test_pragma_allowlist;
    Alcotest.test_case "comment/string blindness" `Quick
      test_comment_and_string_blindness;
    Alcotest.test_case "scoped open" `Quick test_scoped_open;
    Alcotest.test_case "extraction coverage" `Quick test_extraction_coverage;
    Alcotest.test_case "lint parse failure" `Quick test_lint_parse;
    Alcotest.test_case "quoted-string blindness" `Quick
      test_quoted_string_blindness;
    Alcotest.test_case "live repo matches baseline" `Quick
      test_live_repo_matches_baseline;
    Alcotest.test_case "gate trips on injection" `Quick
      test_live_repo_gate_trips;
    Alcotest.test_case "no stale pragmas" `Quick test_no_stale_pragmas;
    Alcotest.test_case "fleet metric namespace" `Quick
      test_fleet_metric_namespace;
    Alcotest.test_case "taxonomy shared with fig5" `Quick
      test_taxonomy_shared_with_bench;
    Alcotest.test_case "alias edges" `Quick test_alias_edges;
    Alcotest.test_case "opaque alias edges" `Quick test_opaque_alias_edges;
  ]
