(* Single source of truth for the repository's trust taxonomy.

   Both the architecture linter (Rules) and the Fig. 5 LoC analogue
   (bench/loc_analysis.ml) classify source files through this module, so
   the paper's four categories — core kernel, chip adaptors/hw, capsules,
   userland/boards — and the trusted/"unsafe-analogue" split cannot
   drift apart between the gate and the measurement. *)

type category =
  | Core
  | Hw
  | Crypto
  | Tbf
  | Capsule
  | Userland
  | Board
  | Obs
  | Tooling

type trust = Trusted | Safe

let category_name = function
  | Core -> "core"
  | Hw -> "hw"
  | Crypto -> "crypto"
  | Tbf -> "tbf"
  | Capsule -> "capsule"
  | Userland -> "userland"
  | Board -> "board"
  | Obs -> "obs"
  | Tooling -> "tooling"

type library = {
  lib_name : string;
  lib_dir : string;
  lib_root_module : string;
  lib_category : category;
}

let libraries =
  [
    { lib_name = "tock"; lib_dir = "lib/core"; lib_root_module = "Tock";
      lib_category = Core };
    { lib_name = "tock_hw"; lib_dir = "lib/hw"; lib_root_module = "Tock_hw";
      lib_category = Hw };
    { lib_name = "tock_crypto"; lib_dir = "lib/crypto";
      lib_root_module = "Tock_crypto"; lib_category = Crypto };
    { lib_name = "tock_tbf"; lib_dir = "lib/tbf";
      lib_root_module = "Tock_tbf"; lib_category = Tbf };
    { lib_name = "tock_capsules"; lib_dir = "lib/capsules";
      lib_root_module = "Tock_capsules"; lib_category = Capsule };
    { lib_name = "tock_userland"; lib_dir = "lib/userland";
      lib_root_module = "Tock_userland"; lib_category = Userland };
    { lib_name = "tock_boards"; lib_dir = "lib/boards";
      lib_root_module = "Tock_boards"; lib_category = Board };
    { lib_name = "tock_fleet"; lib_dir = "lib/fleet";
      lib_root_module = "Tock_fleet"; lib_category = Board };
    { lib_name = "tock_obs"; lib_dir = "lib/obs";
      lib_root_module = "Tock_obs"; lib_category = Obs };
    { lib_name = "tock_analysis"; lib_dir = "lib/analysis";
      lib_root_module = "Tock_analysis"; lib_category = Tooling };
  ]

let library_by_name name =
  List.find_opt (fun l -> l.lib_name = name) libraries

let library_by_root_module m =
  List.find_opt (fun l -> l.lib_root_module = m) libraries

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let library_of_path path =
  List.find_opt (fun l -> starts_with (l.lib_dir ^ "/") path) libraries

let categorize path =
  match library_of_path path with
  | Some l -> Some l.lib_category
  | None ->
      if path = "bin/otock_lint.ml" then Some Tooling
        (* the lint driver itself: tooling, not a board *)
      else if starts_with "bin/" path then Some Board
      else if starts_with "examples/" path then Some Board
      else if starts_with "test/" path || starts_with "bench/" path then
        Some Tooling
      else None

(* Within lib/core, only the modules that touch raw memory, mint
   capabilities, or drive hardware are trusted; pure data structures
   (cells, subslice, ring buffer) are safe library code, as in Tock. *)
let safe_core_modules =
  [
    "cells"; "subslice"; "ring_buffer"; "error"; "syscall"; "driver";
    "hil"; "driver_num"; "univ"; "scheduler";
  ]

let module_base path =
  let base = Filename.basename path in
  match String.index_opt base '.' with
  | Some i -> String.sub base 0 i
  | None -> base

let trust_of_path path =
  match categorize path with
  | Some Hw -> Trusted
  | Some Core ->
      if List.mem (module_base path) safe_core_modules then Safe else Trusted
  | _ -> Safe

(* The directories both the linter and the Fig. 5 bench walk. *)
let kernel_dirs =
  [ "lib/hw"; "lib/core"; "lib/crypto"; "lib/tbf"; "lib/capsules";
    "lib/userland"; "lib/boards"; "lib/fleet"; "lib/obs" ]

let scan_dirs =
  kernel_dirs
  @ [ "lib/analysis"; "bin"; "examples"; "test"; "bench"; "bench/suite";
      "bench/seed_sim" ]

(* Where a fleet process enters library code: Fleet spawns one Domain
   per shard and each shard drives boards through these bindings. The
   domain-safety analysis computes reachability from here. *)
let shard_entry_files = [ "lib/fleet/fleet.ml" ]

(* Layering matrix (paper Fig. 2, §4.1): which otock library may depend
   on which at the dune `libraries` level. External libraries (fmt, logs,
   alcotest, ...) are unconstrained. *)
let allowed_lib_deps = function
  | Core -> [ "tock_hw"; "tock_tbf"; "tock_crypto"; "tock_obs" ]
  | Hw -> [ "tock_crypto"; "tock_obs" ]
  | Crypto -> []
  | Tbf -> [ "tock_crypto" ]
  (* Observability is a zero-dependency leaf: anyone may record into
     it, it depends on nobody. *)
  | Obs -> []
  (* Capsules program against the HIL/adaptor records in the core
     kernel only — never the chip layer itself. TBF parsing is
     data-only (app_loader, signature checker). *)
  | Capsule -> [ "tock"; "tock_tbf"; "tock_obs" ]
  (* Userland speaks the syscall ABI; it links the core kernel for the
     Syscall/Error types but nothing below it. *)
  | Userland -> [ "tock" ]
  (* Boards are trusted composition roots: they wire everything. *)
  | Board ->
      [ "tock"; "tock_hw"; "tock_crypto"; "tock_tbf"; "tock_capsules";
        "tock_userland"; "tock_boards"; "tock_fleet"; "tock_obs" ]
  | Tooling ->
      [ "tock"; "tock_hw"; "tock_crypto"; "tock_tbf"; "tock_capsules";
        "tock_userland"; "tock_boards"; "tock_fleet"; "tock_analysis";
        "tock_obs" ]

(* Core-kernel submodules userland may legitimately name: the syscall
   ABI surface, not the kernel's internals. *)
let userland_core_allowed =
  [ "Syscall"; "Error"; "Driver_num"; "Subslice" ]
