(** Board assembly: the trusted initialization that mints capabilities,
    builds the capsule graph, and registers drivers (Fig. 2).

    This is the OCaml analogue of a Tock board's [main.rs]: the only
    place capabilities are created, the only code that touches both
    [Tock_hw] and capsule constructors. *)

type t = {
  kernel : Tock.Kernel.t;
  chip : Tock_hw.Chip.t;
  sim : Tock_hw.Sim.t;
  console : Tock_capsules.Console.t;
  alarm_mux : Tock_capsules.Alarm_mux.t;
  kv : Tock_capsules.Kv_store.t;
  ipc : Tock_capsules.Ipc.t;
  process_console : Tock_capsules.Process_console.t;
  debug : Tock_capsules.Debug_writer.t;
      (** kernel-side [debug!] sink, shares uart0 through the mux *)
  net : Tock_capsules.Net_stack.t option;
      (** reliable link layer; present when the chip has a radio *)
  legacy : Tock_capsules.Legacy_console.t;
  checker_digest : Tock.Hil.digest;
  checker_pke : Tock.Hil.pke;
  uart_log : Buffer.t;  (** everything transmitted on uart0 *)
  main_cap : Tock.Capability.main_loop;
  pm_cap : Tock.Capability.process_management;
  ext_cap : Tock.Capability.external_process;
}

val build : ?config:Tock.Kernel.config -> Tock_hw.Chip.t -> t
(** Wire the full capsule set over a chip: console + process console on
    uart0 (via the UART mux), alarm mux + driver, LEDs (pins 0-3, active
    low), buttons (pins 4-5), GPIO (pins 8-15), RNG, sensor drivers over
    attached I2C sensor models, HMAC/SHA/AES drivers,
    KV store (flash pages 0-15) and nonvolatile storage (pages 16-47)
    behind a flash mux, IPC, radio driver when the chip has a radio, and
    the deliberately-unsound legacy capsule (experiments only). *)

(** {2 Running} *)

val run_cycles : t -> int -> unit

val run_until : t -> ?max_cycles:int -> (unit -> bool) -> bool

val run_to_completion : t -> ?max_cycles:int -> unit -> unit
(** Until every process is dead or the simulation stalls. *)

val all_processes_done : t -> bool
(** Every process Terminated or Faulted. *)

val output : t -> string
(** Console (uart0) capture. *)

(** {2 Loading apps} *)

val add_app :
  t ->
  name:string ->
  ?min_ram:int ->
  ?flash:bytes ->
  ?storage:int * int list ->
  (Tock_userland.Emu.app -> unit) ->
  (Tock.Process.t, Tock.Error.t) result
(** Shortcut: create a process directly (no TBF/flash involved), as the
    synchronous boot path would after parsing. *)

val load_tbf_sync :
  t ->
  flash:bytes ->
  registry:(string * (Tock_userland.Emu.app -> unit)) list ->
  Tock.Process_loader.summary
(** Synchronous header-only boot (paper §3.4 "simple synchronous pass"). *)

val flash_app_base : int
(** Address where app flash images are considered to live (0x0010_0000). *)
