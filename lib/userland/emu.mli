(* otock-lint: allow-file userland-kernel-internals — Emu is the
   userland/kernel bridge: its interface hands Process.execution values
   to the kernel and Process handles to the harness. *)

(** Userspace process emulation over OCaml effect handlers.

    A process's "machine code" is an OCaml function running inside an
    effect handler; performing {!syscall} or {!work} suspends the
    computation and surfaces a {!Tock.Process.trap} to the kernel, which
    later resumes it — the software rendering of a hardware trap frame and
    context switch. The kernel never sees the handler; it programs against
    {!Tock.Process.execution} only.

    Fidelity points:
    - Syscalls cross the boundary as *raw registers* (encoded/decoded by
      {!Libtock}); there is no shortcut OCaml call into the kernel.
    - Every app memory access is checked against the process's MPU
      configuration; a violation faults the process exactly like a real
      memprotect trap. Apps therefore cannot read kernel-owned grant
      memory even inside their own RAM block.
    - Preemption happens at {!work} points against the scheduler's fuel
      budget; leftover work carries across slices.
    - An app's [main] returning is an implicit [exit 0] syscall.

    The upcall table maps integer "function pointers" to OCaml closures —
    the analogue of userspace callback addresses passed to subscribe. *)

type app
(** Handle given to app code: its process, allocator, and upcall table. *)

exception App_panic_exn of string
(** Raise inside app code to fault the process ("app panic"). *)

val spawn : (app -> unit) -> Tock.Process.t -> Tock.Process.execution
(** Build an execution for the kernel: [Kernel.create_process ~factory:
    (Emu.spawn main)]. *)

val proc : app -> Tock.Process.t

val proc_name : app -> string
(** Name of the app's process — so app code need not touch
    {!Tock.Process} itself. *)

(** {2 Traps} *)

type sys_resume = [ `Regs of int array | `Upcall of int array ]
(** What a trap comes back with: return registers, or an upcall delivery
    [[| fnptr; appdata; a0; a1; a2 |]]. Both arrays are the kernel's
    per-process buffers, valid until the app's next trap, and each is
    wrapped once, so a resume allocates nothing. *)

val trap : app -> int -> int -> int -> int -> int -> sys_resume
(** [trap app cls r0 r1 r2 r3] performs a syscall through the app's one
    reusable trap frame: it writes the class and r0-r3 into the frame and
    traps, allocating no register array. This is {!Libtock}'s path.

    Frame-reuse invariant: every call overwrites the same frame, so the
    kernel must read all of it before it resumes the app. It does: the
    app stays suspended in the trap until its return (or upcall) is
    delivered. The [`Regs] array is likewise the kernel's per-process
    return buffer, valid until the app's next trap; decode it first. *)

val syscall : app -> int array -> sys_resume
(** Perform a raw syscall from a caller-built register array of any
    length (the fuzzer's path). Use {!trap} for well-formed calls. *)

val work : app -> int -> unit
(** Consume [n] simulated CPU cycles; the only preemption point. *)

(** {2 Memory (MPU-checked)} *)

val alloc : app -> int -> int
(** Bump-allocate [n] bytes (8-byte aligned) in app RAM and return the
    *address*. Issues a [brk] memop through the real syscall path when the
    app break must grow. Faults the process on exhaustion. *)

val get_buffer : app -> tag:string -> size:int -> int
(** Named reusable buffer: allocated once per tag (re-allocated larger if
    needed), so loops don't leak the bump allocator. The recorded size is
    what was actually allocated (whole 8-byte granules, at least double
    the outgrown buffer), so near-miss and alternating request sizes
    reuse instead of leaking. Returns the address. *)

val read_u8 : app -> addr:int -> int

val write_u8 : app -> addr:int -> v:int -> unit

val read_bytes : app -> addr:int -> len:int -> bytes
(** Copying read: returns a fresh buffer. *)

val write_bytes : app -> addr:int -> bytes -> unit

val read_u32 : app -> addr:int -> int
(** Little-endian, any alignment. Allocation-free: the scalar loads and
    stores are the data-plane inner loop, so they build the word from
    immediate [uint16] reads instead of boxing an [int32] or cutting a
    4-byte buffer. *)

val write_u32 : app -> addr:int -> v:int -> unit
(** Little-endian, any alignment, allocation-free (see {!read_u32}). *)

val write_string : app -> addr:int -> string -> unit
(** Blit a string into app RAM without an intermediate [Bytes.of_string]
    copy. *)

(** {2 Copy accounting}

    Bulk app-memory transfers ({!read_bytes}, {!write_bytes},
    {!write_string}) are tallied globally, mirroring [Tock.Subslice]'s
    counter on the kernel side. The iopath benchmark
    diffs these around a syscall to prove a path is zero-copy. Scalar
    accesses are register traffic and stay uncounted. *)

val copy_count : unit -> int

(** {2 Upcall closures} *)

val register_upcall_fn : app -> (int -> int -> int -> unit) -> int
(** Returns a fresh nonzero "function pointer" for subscribe. Ids are
    never reused, even after {!remove_upcall_fn}. *)

val remove_upcall_fn : app -> int -> unit
(** Drop the closure under a pointer (no-op if absent). {!Libtock} calls
    this for the pointer a subscribe swaps out, so the table holds only
    live subscriptions. *)

val run_upcall : app -> int -> int -> int -> int -> unit
(** [run_upcall app fnptr a0 a1 a2] runs the closure under [fnptr]. A
    pointer with no closure (null, or removed) is dropped silently, like
    a stale function pointer. *)

val upcall_fn_count : app -> int
(** Closures currently registered. *)

(** {2 Freeze/thaw checkpoints}

    Effect continuations cannot be serialized, so a frozen board's apps
    are resumed by re-running their factory and fast-forwarding: an app
    that wants to survive {!Tock.Kernel.freeze}/[thaw] records a loop
    cursor with {!checkpoint} before each long sleep, and on a thawed
    board reads it back with {!resume_point} to skip the iterations
    already executed (observable state — RAM, counters, subscriptions —
    is restored wholesale from the frozen image afterwards, so the
    fast-forward only has to re-create the continuation shape). *)

val checkpoint : app -> int -> unit
(** Record the app's loop cursor (nonzero) on its process. *)

val resume_point : app -> int
(** 0 on a first run; the last checkpointed cursor when the factory is
    re-run by thaw. *)

val take_resume_alarm : app -> (int * int) option
(** The (reference, dt) of the alarm the frozen app was sleeping on,
    installed by thaw; consumed (one-shot). Used by
    {!Tock_userland.Libtock_sync.resume_sleep}. *)

val set_at_sleep : app -> bool -> unit
(** Mark (or clear) the process as suspended at its post-checkpoint
    protocol sleep — the only freeze point {!Tock.Kernel.thaw} accepts
    for a live process. Maintained by
    {!Tock_userland.Libtock_sync.checkpoint_sleep} and [resume_sleep];
    apps never call it directly. *)
