(** SPI virtualizer: serializes transfers from several device clients on
    one controller. *)

type t

val create : unit -> t

val virtualize : t -> Tock.Hil.spi_device -> Tock.Hil.spi_device
(** Wrap an underlying per-chip-select device; transfers across all
    wrapped devices of this mux queue in arrival order. *)
