(** The board-witness frame layout behind {!Kernel.freeze} and
    {!Kernel.thaw}, which stay in {!Kernel} because they read and patch
    its state.

    A witness is a [TCKSNP03] {!Tock_obs.Frame}. Its sections come in a
    fixed order, so boards in byte-identical states freeze to equal
    bytes:
    + [board]: clock, active/sleep cycle split, raw root-PRNG state,
      the sorted event-queue {e deadlines} (sequence numbers never
      survive a rebuild), [next_pid] and [ram_next];
    + [procs]: a count, then one record per process, which
      {!Process.add_image} writes and {!Process.read_images} reads;
    + one section per {!Kernel.register_freezer} component, in name
      order;
    + [kernel.metrics] and [sim.metrics]: each registry as its 16-byte
      {!Tock_obs.Metrics.layout_digest} then its value blob. No series
      names: the board a witness thaws into is rebuilt from the same
      recipe and already holds the layout. *)

val magic : string
val board : string
val procs : string
val kernel_metrics : string
val sim_metrics : string

val sections : components:string list -> string list
(** A witness's section names, given its board's freezer components. *)

val add_board : Buffer.t -> Tock_hw.Sim.t -> next_pid:int -> ram_next:int -> unit

val add_registry : Buffer.t -> Tock_obs.Metrics.t -> unit
(** Runs the registry's snapshot hooks ({!Tock_obs.Metrics.packed_of}). *)

type witness_image = {
  w_now : int;
  w_active : int;
  w_sleep : int;
  w_rng : int64;
  w_events : int array;
  w_next_pid : int;
  w_ram_next : int;
  w_frame : Tock_obs.Frame.t;
      (** the [procs], freezer and registry sections, read by thaw *)
}

val decode : components:string list -> string -> (witness_image, string) result
(** Check the frame and its section list, and read [board]. Total: an
    [Error] names the section at fault. *)

val restore_registry : Tock_obs.Metrics.t -> Tock_obs.Frame.reader -> unit
(** Read a registry section into {!Tock_obs.Metrics.restore}. *)
