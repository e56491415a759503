(** The Signpost-style deployment (paper §2): several solar-powered
    sensor nodes, each a full board with radio, joined by one shared
    medium, running duty-cycled multiprogrammed workloads.

    This reproduces the original target of Tock's design: multiple
    isolated applications per node, asynchronous kernel for sleep, radio
    reporting. All nodes share one simulation clock. *)

type node = { node_board : Board.t; node_addr : int }

type t = {
  sim : Tock_hw.Sim.t;
  ether : Tock_hw.Radio.Ether.t;
  nodes : node list;
}

val create :
  ?seed:int64 -> ?loss_prob:float -> ?trace_capacity:int -> nodes:int ->
  unit -> t
(** Node radio addresses are 0x100, 0x101, ... [trace_capacity] sizes
    the shared clock's trace ring ({!Tock_hw.Sim.create}); the default
    0 records nothing. *)

val run_all : t -> max_cycles:int -> unit
(** Multi-board stepping: round-robin the kernels; the clock advances to
    the next hardware event only when every kernel is idle. May overshoot
    [max_cycles] to the wake event that crosses it (legacy scenario
    semantics). *)

val run_to_deadline : t -> deadline:int -> [ `Budget | `Asleep of int | `Stalled ]
(** Deadline-bounded stepping for the fleet calendar, mirroring
    {!Tock.Kernel.run_to_deadline}: never sleeps the shared clock past
    [deadline]; reports [`Asleep d] (clock unmoved) when every kernel is
    idle with the next event at [d >= deadline], so the group can be
    parked and fast-forwarded in O(1) via {!sleep_all_to}. *)

val sleep_all_to : t -> int -> unit
(** Deep-sleep every node's CPU and advance the shared clock to an
    absolute time; events due in the interval fire at their deadlines.
    No-op if the time is not in the future. *)

val total_energy_uj : t -> float
