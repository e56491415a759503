(** SPI master controller with chip-select polarity capabilities (Fig. 3).

    The paper's composition-checking example: external devices require an
    active-high, active-low, or configurable chip-select; SPI controllers
    support only some polarities, and *both* constraints are
    chip/board-specific. Tock encodes them in types so mismatches fail at
    compile time. Here the controller advertises a {!cs_capability};
    [lib/boards.Composition] performs the static check at board-build
    time, and this module also exhibits the *failure mode* the check
    prevents: transfers with a mis-polarized chip select never actually
    select the device and read back all-ones garbage. *)

type polarity = Active_low | Active_high

type cs_capability = Only_active_low | Only_active_high | Configurable

type t

type device
(** A slave wired to a chip-select line. *)

val create :
  Sim.t -> Irq.t -> irq_line:int -> cs_capability:cs_capability ->
  cycles_per_byte:int -> t

val cs_capability : t -> cs_capability

val add_device :
  t -> cs:int -> requires:polarity -> transfer:(bytes -> bytes) -> device
(** Wire a device to chip-select line [cs]. [transfer tx] returns the
    device's response bytes (same length as [tx]). [requires] is the CS
    polarity at which the device is actually selected. *)

val configure_cs : t -> cs:int -> polarity -> (unit, string) result
(** Set the polarity the controller drives on a CS line. Fails if the
    controller's capability does not include that polarity. Default
    polarity: active-low on [Only_active_low]/[Configurable] controllers,
    active-high on [Only_active_high]. *)

val cs_polarity : t -> cs:int -> polarity

val read_write : t -> cs:int -> (bytes * int * int) list -> (unit, Completion.refusal) result
(** Start a full-duplex transfer of the segments, back to back. The
    response arrives via the client callback after the wire time. If the
    CS polarity does not match what the device requires, the device never
    sees the transfer and the master reads back 0xFF bytes. *)

val set_client : t -> (rx:bytes -> unit) -> unit
(** Transfer-complete callback (interrupt context). *)

val mispolarized_transfers : t -> int
(** How many transfers ran with a CS polarity the addressed device does
    not respond to — the bug class the Fig. 3 check eliminates. *)
