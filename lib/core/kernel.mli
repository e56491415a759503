(** The Tock kernel: main loop, system-call dispatch, process lifecycle
    (paper §2, §3.3).

    One kernel instance runs per chip. The main loop mirrors Tock's: serve
    interrupts, then let the scheduler pick a process; when nothing is
    runnable and no kernel work is pending, put the CPU into deep sleep
    until the next hardware event — the "asynchronous all the way down"
    design whose energy benefit the [e-async-sleep] experiment measures.

    System calls arrive as raw trap registers and leave as raw return
    registers (see {!Syscall}); the kernel owns upcall subscriptions and
    allow buffers with Tock 2.0 swapping semantics, enforces TBF
    permissions, applies the configured aliasing policy to overlapping
    allows (paper §5.1.1), and optionally implements the blocking-command
    extension (the Ti50 fork feature, paper §3.2).

    Capsules access process resources exclusively through the closure-
    scoped [with_allow_*] / {!schedule_upcall} API — the OCaml rendering
    of "capsules can access them only through temporary references in
    closures" (paper §3.3.2). *)

type t

type fault_policy =
  | Panic_on_fault
  | Restart_on_fault of int  (** maximum restarts per process *)
  | Stop_on_fault

type aliasing_policy =
  | Cell_semantics
      (** accept overlapping buffers, count them (Tock's &[Cell<u8>]
          solution) *)
  | Reject_overlap  (** refuse with INVAL (the runtime-check alternative) *)

type config = {
  scheduler : Scheduler.t;
  fault_policy : fault_policy;
  aliasing_policy : aliasing_policy;
  blocking_commands : bool;  (** enable the Command_blocking extension *)
  max_processes : int;
}

val default_config : unit -> config
(** Round-robin, restart-on-fault (3), cell semantics, no blocking
    commands, 8 processes. Processes are always carved from 128 kB of
    RAM at 0x2000_0000. *)

(** Compatibility view over the kernel's metrics registry: every field
    mirrors a [kernel.*] counter (see {!metrics}). {!stats} builds a
    fresh, immutable record per call. *)
type stats = {
  syscalls : int;
  context_switches : int;
  upcalls_delivered : int;
  sleeps : int;
  loop_iterations : int;
  aliased_allows : int;
  zero_len_allows : int;
  overlap_rejected : int;
  faults : int;
  restarts : int;
  filtered_commands : int;
}

exception Panic of string
(** Raised on kernel panics (e.g. fault with [Panic_on_fault]). *)

val create : ?config:config -> Tock_hw.Chip.t -> t

val sim : t -> Tock_hw.Sim.t

val config : t -> config

val stats : t -> stats

(** {2 Observability}

    Each kernel owns a {!Tock_obs.Metrics} registry — separate from the
    Sim's hardware-side registry, so boards sharing a Sim (radio groups)
    keep distinct per-board series. Series families:
    - [kernel.*] counters (syscalls, context_switches, faults, ...);
    - [kernel.syscall_cycles.<class>] latency histograms;
    - [driver.<name>.{commands,cycles}] per-driver attribution;
    - [process.<name>.*] per-process cycles counter plus gauges,
      registered when the process is created and published at
      snapshot time. *)

val metrics : t -> Tock_obs.Metrics.t

val metrics_snapshot : t -> Tock_obs.Metrics.snapshot
(** Runs the registry's sync hooks (publishing per-process gauges) and
    returns the sorted snapshot. *)

val obs : t -> Tock_obs.Ctx.t
(** The kernel's trace buffer (shared with its Sim), metrics registry
    and clock, bundled for capsules constructed without a kernel
    handle. *)

val set_fault_hook : t -> (Process.t -> Process.fault_reason -> unit) -> unit
(** Called on every process fault before the fault policy is applied —
    boards wire this to the debug writer to print the crash dump Tock
    prints on a process fault. *)

val set_syscall_trace :
  t -> (Process.t -> Syscall.call -> Syscall.ret option -> unit) option -> unit
(** strace-style tracing: called for every decoded system call with its
    immediate return ([None] for calls that block or kill the process).
    [None] disables tracing. *)

(** {2 Drivers} *)

val register_driver : t -> Driver.t -> unit
(** At most one driver per driver number; re-registration replaces. *)

val register_grant : t -> 'a Grant.t -> unit
(** Declare a grant region for freeze/thaw under its own
    {!Grant.name}: {!freeze} records which registered grants each
    process holds, and {!thaw} preallocates them (in witnessed order)
    so the grant-region layout — and thus [kernel_break] — matches the
    frozen image. Capsules call this from [create] with the grant they
    made. Re-registration under the same name replaces. *)

val register_freezer :
  t ->
  name:string ->
  phase:[ `Pre | `Post ] ->
  save:(Buffer.t -> unit) ->
  load:(Tock_obs.Frame.reader -> unit) ->
  unit
(** Declare a named board-state component beyond the kernel's own reach
    (virtual-alarm order and arming, uart capture, dirty flash pages).
    Each is one witness section named [name]: {!freeze} has [save] write
    its payload with the {!Tock_obs.Frame} primitives, and {!thaw} hands
    [load] a reader bounded to the digest-checked section — [`Pre] loads
    before the resume prologues, [`Post] loads after the wholesale state
    patch. A failed read, a {!Tock_obs.Frame.fail} or unread bytes make
    {!thaw} return [Error] naming the section. [Invalid_argument] if
    [name] is one of the kernel's own sections. *)

(** {2 Processes (privileged)} *)

val create_process :
  t ->
  cap:Capability.process_management ->
  name:string ->
  flash_base:int ->
  flash:bytes ->
  min_ram:int ->
  ?permissions:(int * int) list ->
  ?storage:int * int list ->
  ?tbf_flags:int ->
  factory:(Process.t -> Process.execution) ->
  unit ->
  (Process.t, Error.t) result
(** Carve a RAM block via the chip's MPU, allocate a flash region, attach
    a fresh execution, and enter the process in the table ([Runnable] if
    the TBF flags enable it, else [Unstarted]). NOMEM when the RAM pool or
    process table is full. *)

val processes : t -> Process.t list

val find_process : t -> Process.id -> Process.t option

val find_process_by_name : t -> string -> Process.t option

val start_process : t -> cap:Capability.process_management -> Process.id -> (unit, Error.t) result
(** Unstarted/Stopped -> Runnable. *)

val stop_process : t -> cap:Capability.process_management -> Process.id -> (unit, Error.t) result

val restart_process : t -> cap:Capability.process_management -> Process.id -> (unit, Error.t) result
(** Reset syscall state and memory, attach a fresh execution. *)

val terminate_process : t -> cap:Capability.process_management -> Process.id -> (unit, Error.t) result

(** {2 Capsule-facing process resources} *)

val schedule_upcall :
  t -> Process.id -> driver:int -> subscribe_num:int -> args:int * int * int -> bool
(** Queue an upcall for delivery at the process's next yield. True unless
    the process is gone or its queue overflowed (null subscriptions
    swallow silently, as in Tock). *)

val with_allow_rw :
  t ->
  Process.id ->
  driver:int ->
  allow_num:int ->
  (Subslice.t -> 'a) ->
  ('a, Error.t) result
(** Run a closure over the process's currently-allowed read-write buffer.
    The subslice window covers exactly the allowed range; it aliases
    process memory and must not be stashed (closure-scoped access, paper
    §3.3.2). With nothing allowed the closure sees a zero-length window
    (the "dummy empty holder" of paper §3.3.2). Error: NODEVICE (process
    gone). *)

val with_allow_ro :
  t ->
  Process.id ->
  driver:int ->
  allow_num:int ->
  (Subslice.t -> 'a) ->
  ('a, Error.t) result

val allow_size : t -> Process.id -> kind:[ `Ro | `Rw ] -> driver:int -> allow_num:int -> int
(** Length of the currently shared buffer (0 if none). *)

val allow_window :
  t -> Process.id -> kind:[ `Ro | `Rw ] -> driver:int -> allow_num:int -> Subslice.t option
(** A {!Subslice.clone} of the currently-allowed window, reset to the
    full allowed range, for capsules that hold the buffer across a
    split-phase operation (zero-copy tx/feed paths). The clone shares
    the process's bytes — no copy — but narrows independently of the
    [with_allow_*] borrow, and its base bound still confines it to the
    allowed range. [None] if nothing (or zero length) is allowed. Note
    the Tock divergence: real Tock capsules copy out of the process
    buffer before a split-phase op; here the window stays live, so a
    process that re-allows or restarts mid-flight sees the in-place
    semantics documented in DESIGN.md. *)

val process_ids : t -> Process.id list
(** Live process ids (the capsule-visible analogue of grant iteration —
    Tock capsules can likewise enumerate their grant regions). *)

val process_state_of : t -> Process.id -> Process.state option

val process_name_of : t -> Process.id -> string option

(** {2 The main loop} *)

val has_work : t -> bool
(** A pending interrupt or a process the scheduler could run now — the
    same runnable test {!step} applies. Allocation-free, so a
    multi-kernel stepper can probe every kernel before letting a shared
    clock sleep. *)

val step : t -> cap:Capability.main_loop -> [ `Worked | `Slept | `Stalled ]
(** One iteration: interrupts, then either run one process slice, sleep
    to the next hardware event, or report [`Stalled] (nothing runnable,
    no event pending — a finished simulation). *)

val run_to_deadline :
  t ->
  cap:Capability.main_loop ->
  deadline:int ->
  [ `Budget | `Asleep of int | `Stalled ]
(** Step until the sim clock reaches [deadline] (absolute cycles).
    Unlike {!run_until}, the kernel never deep-sleeps {e past} the
    deadline: when it goes idle with the next hardware event at
    [d >= deadline] it returns [`Asleep d] immediately, clock unmoved,
    so an outer cross-board scheduler can park the board and fast-forward
    it in O(1) (via {!sleep_to}) instead of walking the gap. Sleeps that
    end before [deadline] are taken internally, event-to-event.
    [`Budget] = the deadline was reached (a process slice may overshoot
    by up to one timeslice); [`Stalled] = idle with no event pending.
    The resulting board state is byte-identical for any chopping of a
    run into [run_to_deadline] quanta (interleaved with {!sleep_to} at
    the reported wake times) — the fleet determinism anchor. *)

val sleep_to : t -> cap:Capability.main_loop -> int -> unit
(** Metered idle sleep to an absolute cycle time: CPU powered down in
    the energy model, events due in the interval fire at their own
    deadlines, the sleep counter and trace span recorded — exactly the
    in-kernel idle path, callable from an outer scheduler. No-op (except
    firing already-due events) if the time is not in the future. *)

val run_cycles : t -> cap:Capability.main_loop -> int -> unit
(** Step until the sim clock has advanced by at least [n] cycles or the
    kernel stalls. *)

val run_until : t -> cap:Capability.main_loop -> ?max_cycles:int -> (unit -> bool) -> bool
(** Step until the predicate holds; false if it stalled or timed out
    first. Default [max_cycles]: 2_000_000_000. *)

(** {2 Freeze / thaw (park/resume)}

    Process executions are effect continuations and cannot be
    serialized, so a parked board is captured as a compact byte
    {e witness} of its observable state. The one way back is {!thaw}
    ({e direct materialization}): rebuild the board, let each resumable
    app's factory fast-forward through its checkpoint (re-entering the
    recorded sleep so the continuation suspends in the frozen shape),
    then patch everything else back from the witness bytes. O(state) —
    independent of how long the board ran. Only boards frozen at a
    point thaw can rebuild come back: {!resumable} says whether a live
    board is at one, so a caller parks a board only when it holds.

    The witness is a [TCKSNP03] {!Tock_obs.Frame} ({!Witness} lists
    its sections): every section carries an MD5, so any changed byte is
    an [Error], and registries are stored by layout digest, without
    series names. *)

val freeze : ?buf:Buffer.t -> t -> string
(** Serialize the board's observable state (format above).
    Deterministic: two boards in byte-identical states produce equal
    witnesses. Only reads state, so it cannot fail, even after a panic.
    Runs the registries' snapshot hooks (same effect as
    {!metrics_snapshot}); does not advance the simulation. [buf], if
    given, is cleared and holds the section payloads (the fleet pools
    one per domain to avoid re-growing a fresh buffer per park). *)

val resumable : t -> bool
(** Whether {!thaw} accepts this board's freeze point: the board is
    quiescent ({!has_work} is false: no interrupt or deliverable upcall
    pending), every live process has checkpointed and sits in its
    checkpoint sleep ([Libtock_sync.checkpoint_sleep]) as plain
    [Yielded], and no process is [Stopped] or [Unstarted].
    Faulted and terminated processes do not matter. The per-process
    part is {!Process.thawable}, the test {!thaw} applies to each
    witnessed record, so a board frozen
    while this holds thaws unless its witness is corrupt or the rebuild
    does not match its recipe. A board stopped between an event and
    the loop step that services it (as {!run_cycles} can leave one) is
    not resumable. Read-only. *)

val thaw : t -> cap:Capability.main_loop -> string -> (unit, string) result
(** [thaw t ~cap w] rehydrates a freshly-built board [t] directly from
    the witness bytes. The kernel checks its process-table layout and
    each process's name against the witness, runs the [`Pre] freezer
    loads (they install resume alarms), has each process take up its
    record's freeze point ({!Process.thaw_begin}) and preallocates the
    grants the record holds from its {!register_grant} registry. It
    then warps the clock to the frozen instant, runs each live
    process's factory prologue to quiescence with the clock held
    (resumable apps skip completed iterations and re-enter the
    recorded sleep — see [Apps]; no frozen event can fire under them)
    and restores the PRNG stream. Each process then patches itself
    from its record ({!Process.thaw_patch}) and takes back its pending
    resume argument. Last come the [`Post] freezer loads, a check of
    the rebuilt event schedule against the witness, and both metrics
    registries, overwritten by layout. On success, [freeze t = w]. [Error] — with the board left in an unspecified half-patched
    state that must be discarded — whenever anything fails to line up:
    a changed byte, a process frozen where {!resumable} would have been
    false, an upcall id that cannot be remapped, registry layout drift. *)
