(** Memory protection unit models (paper §2, §5.4).

    Mirrors Tock's [mpu::MPU] trait: the kernel asks the MPU to carve
    protection regions out of unallocated memory, and later to grow the
    application-accessible part of a process's memory block as the app
    issues [brk]/[sbrk]. Two hardware flavors are modelled:

    - {!cortex_m}: regions must be power-of-two sized and size-aligned,
      with 8 subregions each — so the app-owned prefix of a process memory
      block is tracked at subregion granularity and allocations waste
      memory to alignment. This reproduces the arithmetic that the paper
      singles out as a recurring source of subtle logic bugs.
    - {!pmp}: RISC-V PMP-style exact ranges at 4-byte granularity.

    The paper's threat model needs: app memory inaccessible above the app
    break (grant/kernel-owned), flash executable but not writable, and no
    access outside a process's own regions. *)

type perms = { read : bool; write : bool; execute : bool }

val r_only : perms
val rw : perms
val rx : perms

type flavor = Cortex_m | Pmp

type t
(** One MPU hardware unit. *)

type config
(** A per-process register configuration (Tock: [MpuConfig]). *)

type region = { region_start : int; region_size : int; region_perms : perms }

val create : ?num_regions:int -> flavor -> t
(** Default 8 regions. *)

val new_config : t -> config

val reset_config : t -> config -> unit

(** {2 Allocation} *)

val allocate_region :
  t ->
  config ->
  unallocated_start:int ->
  unallocated_size:int ->
  min_size:int ->
  perms ->
  region option
(** Carve a protection region of at least [min_size] bytes out of the
    unallocated range, respecting the flavor's alignment rules. Returns
    [None] if it cannot fit or no region slots remain. *)

val allocate_app_memory_region :
  t ->
  config ->
  unallocated_start:int ->
  unallocated_size:int ->
  min_memory_size:int ->
  initial_app_memory_size:int ->
  initial_kernel_memory_size:int ->
  (int * int) option
(** Allocate the whole memory block for a process: returns
    [(block_start, block_size)]. The MPU grants the app read/write to an
    initial prefix covering [initial_app_memory_size]; the kernel-owned
    suffix ([initial_kernel_memory_size], i.e. the grant region) is
    protected from the app. *)

val update_app_memory_region :
  t -> config -> app_break:int -> kernel_break:int -> (unit, string) result
(** Grow/shrink the app-accessible prefix to reach [app_break]. Fails if
    the protection granularity cannot keep the app away from
    [kernel_break] (the bottom of kernel-owned memory). *)

(** {2 Checking} *)

val check : t -> config -> addr:int -> len:int -> [ `Read | `Write | `Execute ] -> bool
(** Would the access fault? [true] = allowed. Zero-length accesses are
    allowed anywhere (matching "no access performed"). *)

val check_with_range :
  t ->
  config ->
  addr:int ->
  len:int ->
  [ `Read | `Write | `Execute ] ->
  (int * int) option
(** Like {!check}, but on success returns the permitting half-open range
    [\[lo, hi)]: any access of the same kind falling entirely inside it is
    also allowed *as long as the configuration's {!generation} has not
    changed*. This is the contract the per-process fast-path cache in
    [Process.check_access] is built on. A zero-length access returns the
    empty range [(addr, addr)], which can never satisfy a later hit. *)

val generation : config -> int
(** Monotonic counter bumped by every successful mutation of the
    protection state ({!allocate_region}, {!allocate_app_memory_region},
    {!update_app_memory_region}, {!reset_config}). Cached check results
    are valid only while the generation is unchanged. *)

val scan_count : config -> int
(** Number of full region-table lookups performed against this config
    (each {!check}/{!check_with_range} with nonzero length counts one).
    Lets tests assert that a cache-hit path did not rescan the table. *)

val restore_scan_count : config -> int -> unit
(** Overwrite the scan diagnostic, for thawing a frozen board: the count
    is observable through metrics, so a direct state patch must put back
    the frozen value rather than the scans its own rebuild performed. *)

val restore_generation : config -> int -> unit
(** Overwrite the generation counter, for thawing a frozen board. The
    rebuild's own region/brk churn advances the generation past the
    frozen value; callers that also restore generation-stamped caches
    (see {!Tock.Process}) must put the counter back so cache validity
    after a thaw matches the board that never parked. *)

val app_accessible_end : config -> int option
(** Current end of the app-accessible prefix of the app memory region. *)
