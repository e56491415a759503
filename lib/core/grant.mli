(** Grants: per-process kernel state without a kernel heap (paper §2.4).

    A capsule declares a grant once (type, byte size, initializer); the
    kernel then lazily allocates one instance *inside each process's own
    memory block* the first time the capsule enters the grant for that
    process. The bytes come out of the process's grant region (kernel
    break moves down), so a process that drives a capsule to allocate
    unboundedly only exhausts itself — the availability experiment
    [e-grant-exhaustion] measures exactly this.

    Entry is closure-scoped and guarded against reentrancy: entering a
    grant for a process while already inside it returns [ALREADY] (Tock
    makes this unrepresentable; we detect and refuse). Grant contents are
    dropped when the process restarts or dies, matching "application state
    does not outlast the process". *)

type 'a t

val create :
  cap:Capability.memory_allocation ->
  name:string ->
  size_bytes:int ->
  init:(unit -> 'a) ->
  'a t
(** [size_bytes] is what the instance costs a process's grant region —
    the accounting analogue of the Rust type's size. *)

val name : 'a t -> string
(** The name given at {!create}: the grant's name in trace events and
    in board witnesses ({!Kernel.register_grant}). *)

val enter : 'a t -> Process.t -> ('a -> 'b) -> ('b, Error.t) result
(** Allocate-if-needed, then run the closure on the process's instance.
    Errors: NOMEM (grant region exhausted), ALREADY (reentrant entry). *)

val is_allocated : 'a t -> Process.t -> bool

val preallocate : 'a t -> Process.t -> bool
(** Allocate the instance for a process without entering it — no enter
    accounting, no trace event. Used by board thaw ({!Kernel.thaw}) to
    re-establish the grant layout recorded in a frozen image before the
    app's resume prologue runs; a no-op if already allocated. False =
    grant region exhausted. *)

val peek : 'a t -> Process.t -> 'a option
(** The process's instance if allocated, without allocating, entering,
    or counting anything — for freezer saves ({!Kernel.register_freezer}),
    which must not perturb the state they witness. *)

val reentries_refused : unit -> int
(** Global count of refused reentrant entries. *)
