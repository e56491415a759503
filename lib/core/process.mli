(** Processes: hardware-isolated, preemptively scheduled applications
    (paper §2.3).

    A process owns a flash region (its TBF image) and a RAM block carved
    out by the MPU. The RAM block is split three ways, as in Tock:

    {v
    ram_base                     app_break        kernel_break     ram_end
      | app data / heap (app R/W) | unused         | grant region    |
      |<------- app accessible -->|                |<- kernel owned ->|
    v}

    [app_break] grows upward via the [brk]/[sbrk] memops; [kernel_break]
    grows downward as grants are allocated. They may never cross — that
    single invariant is what makes the kernel heapless-safe: a greedy app
    (or the grants opened on its behalf) can exhaust only its own block
    (paper §2.4).

    Execution is abstract: the kernel resumes a process and receives a
    {!trap} (a raw-register syscall, a fault, or timeslice expiry). The
    userland emulator provides the {!execution} implementation; the kernel
    never sees it — mirroring the real hardware boundary where the kernel
    only observes trap frames. *)

type id = int

type fault_reason =
  | Mpu_violation of string
  | Bad_syscall of string
  | App_panic of string

val describe_fault : fault_reason -> string
(** The one wording of a fault, shared by the kernel's trace event and
    panic message, the board's crash dump and the fleet's flight
    artifacts: a kind prefix (MPU violation, bad syscall, app panic),
    a colon and the detail. *)

type state =
  | Unstarted
  | Runnable
  | Yielded          (** blocked in yield-wait *)
  | Yielded_for of { driver : int; subscribe_num : int }
  | Blocked_command of { driver : int; subscribe_num : int }
      (** parked by the blocking-command extension *)
  | Faulted of fault_reason
  | Terminated of { code : int }
  | Stopped of state  (** frozen by management tooling; payload = prior state *)

type trap =
  | Trap_syscall of int array  (** 5 raw registers, see {!Syscall} *)
  | Trap_fault of fault_reason
  | Trap_timeslice_expired

type resume_arg =
  | Rstart
  | Rcontinue
      (** resume after timeslice expiry (the suspension point was not a
          syscall, so there is no value to deliver) *)
  | Rsyscall_ret of int array  (** 4 raw registers *)
  | Rupcall of int array
      (** deliver a queued upcall out of yield-wait: fnptr, appdata and
          the three arguments. Like [Rsyscall_ret], the array is the
          kernel's per-process buffer, valid until the process traps
          again. *)

type execution = {
  step : fuel:int -> resume_arg -> trap;
      (** Run until trap or fuel exhaustion. *)
  used : unit -> int;
      (** Cycles the last [step] consumed. A separate call, so a step
          returns its trap without pairing it with a count. *)
  destroy : unit -> unit;
      (** Drop the suspended continuation (process kill/restart). *)
}

type upcall = { fnptr : int; appdata : int }

type allow_entry = { a_addr : int; a_len : int; a_window : Subslice.t option }
(** An allowed buffer. [a_window] is the zero-copy window over process
    memory materialized at allow time ({!allow_entry}); [None] iff
    the allow is zero-length (Tock 2.0 revocation). *)

type t

(** {2 Construction (trusted: kernel/loader only)} *)

val create :
  id:id ->
  name:string ->
  ram_base:int ->
  ram_size:int ->
  initial_app_break:int ->
  flash_base:int ->
  flash:bytes ->
  mpu:Tock_hw.Mpu.t ->
  mpu_config:Tock_hw.Mpu.config ->
  permissions:(int * int) list option ->
  storage:(int * int list) option ->
  tbf_flags:int ->
  t

val set_execution : t -> execution -> unit

val set_obs : t -> Tock_obs.Ctx.t -> unit
(** Install the owning kernel's observability context (trace buffer,
    metrics registry, clock). Defaults to {!Tock_obs.Ctx.disabled}, so
    an unadopted process records nothing. *)

val obs : t -> Tock_obs.Ctx.t

val id : t -> id

val name : t -> string

val state : t -> state

val set_state : t -> state -> unit

val tbf_flags : t -> int

(** {2 Memory} *)

val ram_base : t -> int

val ram_end : t -> int

val app_break : t -> int

val kernel_break : t -> int

val flash_base : t -> int

val flash_end : t -> int

val flash_image : t -> bytes

val brk : t -> int -> (unit, Error.t) result
(** Move the app break to an absolute address (memop 0). Updates the MPU
    app region; NOMEM if it would reach the grant region or the MPU
    granularity cannot honor it. *)

val sbrk : t -> int -> (int, Error.t) result
(** Grow/shrink by a delta (memop 1); returns the previous break. *)

val allocate_grant_bytes : t -> int -> bool
(** Move [kernel_break] down to reserve grant memory; false = NOMEM. *)

val grant_bytes_used : t -> int

val mem_view : t -> addr:int -> len:int -> [ `Ram of int | `Flash of int ] option
(** Resolve an absolute address range to an offset in the process RAM or
    flash image; [None] if it straddles or escapes both, however close
    to [max_int] the address is. Allow windows resolve by the same rule. *)

val ram_bytes : t -> bytes
(** Raw RAM backing store (trusted code only). *)

val check_access : t -> addr:int -> len:int -> [ `Read | `Write | `Execute ] -> bool
(** The MPU check applied to app-mode accesses. *)

(** {2 Syscall state: upcalls}

    The subscribe table and both allow tables are small arrays scanned
    by (driver, num), and the upcall queue is a ring of ints: no lookup,
    swap, queueing or delivery allocates. A key stays in its table once
    added, null or zero, until restart or thaw clears the tables:
    freeze writes every key into the witness. *)

val null_upcall : upcall

val subscribe_swap : t -> driver:int -> subscribe_num:int -> upcall -> upcall
(** Install an upcall, returning the previous one (Tock 2.0 swap
    semantics; the first swap returns {!null_upcall}, [fnptr = 0]). *)

val enqueue_upcall :
  t -> driver:int -> subscribe_num:int -> args:int * int * int -> bool
(** Queue a pending upcall for delivery at the next yield. Scheduling on a
    null subscription silently succeeds without enqueueing (as in Tock).
    False only if the pending queue overflowed. *)

val pop_upcall : t -> int array -> int
(** Move the oldest queued upcall into the array, as fnptr, appdata and
    its three arguments, and return the number of the driver that
    scheduled it; -1 if none is queued. *)

val pop_upcall_for : t -> driver:int -> subscribe_num:int -> int array -> bool
(** {!pop_upcall} for the oldest upcall of one subscription; the other
    queued upcalls keep their order. *)

val has_upcall_for : t -> driver:int -> subscribe_num:int -> bool

val has_pending_upcalls : t -> bool

val upcalls_dropped : t -> int

(** {2 Syscall state: allows} *)

val allow_swap :
  t ->
  kind:[ `Ro | `Rw ] ->
  driver:int ->
  allow_num:int ->
  allow_entry ->
  allow_entry
(** Swap semantics; the zero entry [{a_addr = 0; a_len = 0}] is the
    initial/revoked state. *)

val allow_entry :
  t ->
  kind:[ `Ro | `Rw ] ->
  driver:int ->
  allow_num:int ->
  addr:int ->
  len:int ->
  allow_entry
(** The entry an allow of [addr, len] under this key would install:
    the key's last installed entry if it spans the same range (a buffer
    allowed and revoked in a loop reuses one window), else a new one
    that resolves the range to process RAM or flash and holds the
    base-bounded window capsules operate on in place. A zero-length
    range gets no window. Its [a_len] is negative, and nothing may
    install it, if the range escapes process memory: no option is
    built on the syscall path. *)

val allow_get : t -> kind:[ `Ro | `Rw ] -> driver:int -> allow_num:int -> allow_entry

val allow_overlaps : t -> kind:[ `Ro | `Rw ] -> addr:int -> len:int -> bool
(** Does the range overlap any currently-allowed buffer of that kind?
    Zero-length ranges overlap nothing. (Paper §5.1.1: mutable aliasing
    detection.) *)

(** {2 Grant value store} *)

val grant_table : t -> Univ.t Int_hashtbl.Int.t
(** Grant instances by grant id; int-keyed, so a capsule's grant entry
    hashes no key through the polymorphic primitive. *)

(** {2 Execution} *)

val run : t -> fuel:int -> resume_arg -> trap
(** Resume; raises [Invalid_argument] if no execution is attached. *)

val cycles_used : t -> int
(** Cycles the last {!run} consumed. *)

val destroy_execution : t -> unit

(** {2 Lifecycle bookkeeping} *)

val note_restart : t -> unit

val restart_count : t -> int

val reset_syscall_state : t -> unit
(** Clear upcalls/allows/grants (on restart). Grant bytes return to the
    pool; the break resets to its initial position. *)

val note_syscall : t -> class_num:int -> unit

val note_grant_enter : t -> unit

val grant_enter_count : t -> int

val mpu_scan_count : t -> int
(** Region-table scans performed on behalf of this process, i.e. MPU
    check-cache misses (see {!check_access}). *)

val syscall_count : t -> int

val syscall_count_by_class : t -> class_num:int -> int

val storage_ids : t -> (int * int list) option
(** Persistent-storage ACL from the TBF: (write_id, readable ids). *)

val command_allowed : t -> driver:int -> command_num:int -> bool
(** TBF permission check: with no permissions element every driver is
    allowed; otherwise the driver must be listed and the command bit set
    (command numbers >= 32 share the top bit, a simplification). *)

(** {2 Freeze/thaw: the process's witness record}

    Process executions are effect continuations and cannot be
    serialized. Direct board freeze/thaw ({!Tock.Kernel.freeze} /
    {!Tock.Kernel.thaw}) instead writes one record per process into the
    witness's [procs] section, re-runs the app factory on a fresh board
    and patches the process back to the record. This module owns that
    record: it alone writes, reads and restores its fields, and none of
    it is reachable from the syscall ABI. *)

type emu_residue = {
  er_alloc_next : int;
  er_next_fn : int;
  er_scratch : (string * (int * int)) list;  (** tag -> (addr, size) *)
}
(** The userland emulator's data state beside the continuation: bump
    allocator cursor, upcall function-id counter, named scratch
    buffers. *)

type bridge = {
  br_residue : unit -> emu_residue;
  br_set_residue : emu_residue -> unit;
  br_remap_upcall : old_id:int -> new_id:int -> bool;
}
(** Closures the emulator installs over its private state so freeze and
    thaw can capture and restore it without depending on the userland
    layer. [br_remap_upcall] rebinds the closure under a live upcall
    function id to the id recorded in the frozen image; false if no
    closure lives under [old_id]. *)

val set_bridge : t -> bridge -> unit

val checkpoint : t -> int
(** Resumable-app cursor: 0 until the app first checkpoints. Witnessed
    and restored by freeze/thaw; reset on restart. *)

val set_checkpoint : t -> int -> unit

val set_resume_alarm : t -> (int * int) option -> unit
(** The (reference, dt) the frozen process was sleeping on; installed
    by thaw before the factory re-runs. *)

val take_resume_alarm : t -> (int * int) option

val set_at_sleep : t -> bool -> unit
(** Mark (or clear) the app as suspended in its post-checkpoint protocol
    sleep, the one suspension point a thawed factory's fast-forward
    re-enters exactly. *)

val thawable : t -> bool
(** Whether thaw accepts this process's freeze point, by the one rule
    {!thaw_begin} applies to a record: a faulted or terminated process
    keeps its corpse; a live one must have checkpointed and sit in its
    checkpoint sleep as plain [Yielded]. Frozen anywhere else (mid-I/O
    wait, busy-retry nap, [Stopped], [Unstarted]) every witnessed byte
    can match while the unserializable continuation differs, which
    would diverge later. *)

val add_image :
  Buffer.t -> t -> resume:resume_arg option -> grants:string list -> unit
(** Append the process's record: name, state, the kernel's pending
    [resume], counters, checkpoint, MPU caches, emulator residue,
    per-class syscall counts, the held [grants] (by registered name),
    subscriptions, allows, queued upcalls and sparse zero-elided RAM
    runs. Only reads the process. *)

type image
(** One decoded record. *)

val read_images : Tock_obs.Frame.reader -> image list
(** A count, then that many {!add_image} records. Fails through
    {!Tock_obs.Frame.fail}, so run it under {!Tock_obs.Frame.read} and
    every error names the section. *)

val image_name : image -> string
val image_grants : image -> string list
val image_resume : image -> resume_arg option

val image_subscriptions : image -> (int * int * upcall) list
(** The record's subscribe table: (driver, subscribe number, upcall),
    sorted by key, null subscriptions included. *)

val image_allows : image -> ([ `Rw | `Ro ] * int * int * int * int) list
(** The record's allow tables: (kind, driver, allow number, address,
    length), read-write first, each sorted by key, zero allows
    included. *)

val thaw_begin : t -> image -> (unit, string) result
(** Thaw's first step, before the resume prologues run: restore the
    checkpoint cursor, refuse a freeze point {!thawable} rejects, and
    turn a dead process into its frozen corpse (execution dropped) so
    the prologues never run it. *)

val thaw_patch : t -> image -> (unit, string) result
(** Thaw's last step, after the prologues settled: rebind the live
    upcall closures to the frozen function ids through the emulator's
    {!bridge}, then restore subscriptions, breaks, allows, queued
    upcalls, RAM, counters, MPU caches, per-class counts, emulator
    residue and state, and check the grant bytes against the record.
    [Error] names the process and what failed to line up. *)
