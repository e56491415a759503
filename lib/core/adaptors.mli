(** Trusted chip adaptors: implement the {!Hil} interfaces over the raw
    [Tock_hw] peripherals (Fig. 2's "hardware-specific adaptors").

    Construct exactly one adaptor per peripheral — the adaptor claims the
    peripheral's completion callback. Sharing among multiple clients is
    the job of virtualizer capsules layered on top.

    This module is part of the kernel's trusted base (DESIGN.md §4): it
    holds in-flight buffers in {!Cells.Take_cell}s and hands the
    hardware the DMA descriptors of their windows; the hardware latches
    the bytes at start. *)

val alarm : Tock_hw.Hw_timer.t -> Hil.alarm

val uart : Tock_hw.Uart.t -> Hil.uart

val entropy : Tock_hw.Trng.t -> Hil.entropy

val digest : Tock_hw.Sha_engine.t -> Hil.digest

val aes : Tock_hw.Aes_engine.t -> Hil.aes

val pke : Tock_hw.Pke_engine.t -> Hil.pke

val flash : Tock_hw.Flash_ctrl.t -> Hil.flash

val radio : Tock_hw.Radio.t -> Hil.radio

val spi_device : Tock_hw.Spi.t -> cs:int -> Hil.spi_device
(** A per-chip-select view of the SPI controller. Transfers from several
    [spi_device]s must be serialized by a virtualizer; concurrent use
    returns BUSY. *)

val i2c_device : Tock_hw.I2c.t -> addr:int -> Hil.i2c_device

val gpio_pin : Tock_hw.Gpio.t -> pin:int -> Hil.gpio_pin

val adc : Tock_hw.Adc.t -> Hil.adc
