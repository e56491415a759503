(** Paged NOR-flash controller.

    Real NOR flash can only clear bits on write (logical AND with the
    stored value) and must erase whole pages back to 0xFF — drivers that
    forget the erase-before-write rule silently corrupt data, so the model
    preserves AND semantics and counts such writes. Erase and write are
    asynchronous with interrupt completion, per Tock's [hil::flash];
    reads are synchronous (memory-mapped). Per-page wear counters support
    the KV-store capsule's wear-leveling tests. *)

type t

type op_result = Read_done of bytes | Write_done | Program_done | Erase_done

val create :
  Sim.t -> Irq.t -> irq_line:int ->
  pages:int -> page_size:int ->
  read_cycles:int -> write_cycles:int -> erase_cycles:int -> t

val pages : t -> int

val page_size : t -> int

val read_page_sync : t -> page:int -> bytes
(** Synchronous memory-mapped read (fresh copy). *)

val read_page : t -> page:int -> (unit, Completion.refusal) result
(** Asynchronous read; result via client. *)

val write_page : t -> page:int -> (bytes * int * int) list -> (unit, Completion.refusal) result
(** AND-writes the full page from the [(buf, off, len)] segments, which
    must total exactly [page_size] bytes. Completion via client. *)

val program_region :
  t -> page:int -> off:int -> (bytes * int * int) list -> (unit, Completion.refusal) result
(** Scatter-gather partial-page program: the [(buf, off, len)] segments
    are AND-programmed back to back into the page starting at byte
    [off]; the rest of the page is untouched. Program time scales with
    the programmed span. Completion via client ([Program_done]). *)

val erase_page : t -> page:int -> (unit, Completion.refusal) result

val set_client : t -> (op_result -> unit) -> unit

val busy : t -> bool

val wear : t -> page:int -> int
(** Erase count of a page. *)

val dirty_writes : t -> int
(** Writes that tried to set a 0 bit back to 1 (lost data). *)

val iter_dirty_pages : t -> (page:int -> bytes -> unit) -> unit
(** Visit every page with materialized (non-sentinel) backing store —
    the only pages a board witness needs to record (erased-page
    elision). The bytes are the live store; do not mutate. *)

val iter_worn_pages : t -> (page:int -> int -> unit) -> unit
(** Visit every page erased at least once, with its {!wear} — with
    {!dirty_writes}, the counters a board witness records besides the
    pages. *)

val restore_page : t -> page:int -> bytes -> unit
(** Thaw support: install page contents directly (copied), bypassing
    NOR timing/AND semantics. [Invalid_argument] on bad page or size. *)

val restore_counters : t -> dirty_writes:int -> wear:(int * int) list -> unit
(** Thaw support: set {!dirty_writes} and the wear of each listed
    [(page, erases)]; every other page's wear becomes 0.
    [Invalid_argument] on a negative count, a bad page or a wear that is
    not positive. *)
