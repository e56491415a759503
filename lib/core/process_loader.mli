(** Process loading: the synchronous header-only path and the
    asynchronous credential-checking state machine (paper §3.4).

    The paper describes how signed applications forced loading to become
    a multi-step state machine — credentials are checked by asynchronous
    crypto hardware — and how the kernel retains both boot paths,
    selected at build time: [load_sync] for single-signed-image products
    that don't need per-app credentials, [load_async] when each process
    binary must be individually verified before it may run.

    Both walk a flash region of concatenated TBFs with {!Tock_tbf.Tbf.parse_all}
    and run one per-image step: charge the header walk's cycles, run the
    checker over the image's stored integrity region, then create the
    process over the image's stored bytes, so what was checked is what
    runs. [load_sync] is that walk with {!accept_all_checker}. App code
    is resolved through a registry mapping package names to executions
    (the simulation analogue of jumping to the binary's init function).

    [install] is the dynamic-loading path the async state machine made
    cheap: the same step on one new image at runtime. *)

type lookup = string -> (Process.t -> Process.execution) option

type checker = {
  check_credentials :
    Tock_tbf.Tbf.t -> region:bytes -> verdict:((bool * string) -> unit) -> unit;
      (** Asynchronous: must eventually call [verdict (ok, why)] exactly
          once, typically from crypto-engine completion context. [region]
          is the image's stored header and binary, the bytes its
          credentials cover. *)
}

val accept_all_checker : checker
(** Approves everything at once, inside [check_credentials]: the
    synchronous pass. *)

type outcome =
  | Loaded of Process.t
  | Rejected of { app_name : string; reason : string }

type summary = {
  outcomes : outcome list;
  parse_error : Tock_tbf.Tbf.parse_error option;
  headers_parsed : int;
}

val load_sync :
  Kernel.t ->
  cap:Capability.process_management ->
  flash_base:int ->
  flash:bytes ->
  lookup:lookup ->
  summary
(** One synchronous pass: [load_async] with [accept_all_checker], whose
    verdicts arrive at once, so the summary is ready when it returns.
    Headers are parsed and checksummed, credentials are not checked (the
    "simple synchronous pass over the header and integrity checks"). *)

val load_async :
  Kernel.t ->
  cap:Capability.process_management ->
  flash_base:int ->
  flash:bytes ->
  lookup:lookup ->
  checker:checker ->
  on_done:(summary -> unit) ->
  unit
(** Start the asynchronous state machine. Apps are checked and created
    one at a time; progress requires the kernel loop to run (crypto
    completions arrive as interrupts). [on_done] fires after the last
    app, before [load_async] returns if the checker answers at once.
    Checked apps that fail verification are rejected and skipped —
    later apps still load. *)

val install :
  Kernel.t ->
  cap:Capability.external_process ->
  pm_cap:Capability.process_management ->
  flash_base:int ->
  tbf:bytes ->
  lookup:lookup ->
  checker:checker ->
  on_done:((Process.t, string) result -> unit) ->
  unit
(** Dynamically verify and start a single new app at runtime: the
    per-image step on the image at the start of [tbf], its process's
    flash at [flash_base]. An image that does not parse is refused at
    once, without the header walk's charge. *)
