(** Hardware interface layer (HIL): the narrow, split-phase interfaces
    capsules program against (Fig. 2's boundary between capsules and
    trusted chip adaptors).

    Every long-running operation follows Tock's buffer-ownership protocol
    (paper §4.2): the caller passes a {!Subslice.t}, *conceptually moving
    ownership* into the driver; on error the buffer comes straight back in
    the [Error] value ([(code, buffer)]), otherwise it returns through the
    completion callback. Holding the buffer meanwhile is the adaptor's
    job, typically in a {!Cells.Take_cell}.

    An operation either starts ([Ok ()], then exactly one client call)
    or is refused, and then no client call follows. It is in flight
    until its client call begins, and a second operation meanwhile is
    BUSY, also from another view of the same SPI or I2C controller.
    Every client call comes from a completion's top half, never from
    inside a call on the record. A hardware refusal
    ({!Tock_hw.Completion.refusal}) maps to one code in every record:
    [Busy] → BUSY, [Invalid] (a bad page, channel, count, length, key,
    IV, ECB length, missing key or range, or a [flash_write] window that
    is not exactly one page) → INVAL, [Size] (a radio frame over 127
    bytes) → SIZE. The hardware latches the window's bytes at
    start, so the caller's bytes may change while the buffer is away
    without changing what is sent, programmed or digested.

    Capsules must only touch hardware through these records — never
    through [Tock_hw] directly. That rule (checked by the test suite over
    the capsule sources) is the OCaml analogue of capsules being
    unsafe-free crates. *)

type alarm = {
  alarm_now : unit -> int;  (** current ticks (32-bit wrapping) *)
  alarm_frequency_hz : int;
  alarm_set : reference:int -> dt:int -> unit;
  alarm_disarm : unit -> unit;
  alarm_set_client : (unit -> unit) -> unit;
}

type uart = {
  uart_transmit : Subslice.t -> (unit, Error.t * Subslice.t) result;
      (** Transmit the active window. *)
  uart_set_transmit_client : (Subslice.t -> unit) -> unit;
      (** Buffer returned with its window intact. *)
  uart_receive : Subslice.t -> (unit, Error.t * Subslice.t) result;
      (** Receive exactly the window length. *)
  uart_set_receive_client : (Subslice.t -> (unit, Error.t) result -> unit) -> unit;
      (** The buffer comes back with [Ok ()] once its window is filled,
          or with [Error CANCEL] when [uart_abort_receive] ended the
          receive first; its bytes are then not received data. *)
  uart_abort_receive : unit -> unit;
      (** End the receive in flight, if any. Its one client call,
          [Error CANCEL], comes later from the UART's top half, as
          Tock's [receive_abort] answers BUSY and calls back; until
          then the receive is still in flight. The hardware completion
          it cancelled calls nobody. *)
}

type entropy = {
  entropy_request : count:int -> (unit, Error.t) result;
  entropy_set_client : (int array -> unit) -> unit;
}

type digest_mode = D_sha256 | D_hmac of bytes

type digest = {
  digest_set_mode : digest_mode -> (unit, Error.t) result;
  digest_add_data : Subslice.t -> (unit, Error.t * Subslice.t) result;
  digest_set_data_client : (Subslice.t -> unit) -> unit;
  digest_run : unit -> (unit, Error.t) result;
  digest_set_digest_client : (bytes -> unit) -> unit;
}

type aes_mode = A_ctr | A_ecb_encrypt | A_ecb_decrypt

type aes = {
  aes_set_key : bytes -> (unit, Error.t) result;
  aes_set_iv : bytes -> (unit, Error.t) result;
  aes_crypt : aes_mode -> Subslice.t -> (unit, Error.t * Subslice.t) result;
      (** In-place transform of the window; result arrives via client. *)
  aes_set_client : (Subslice.t -> unit) -> unit;
}

type pke = {
  pke_verify :
    pubkey:bytes -> msg:bytes -> signature:bytes -> (unit, Error.t) result;
  pke_set_client : (bool -> unit) -> unit;
}

type flash_event =
  [ `Read_done of bytes
  | `Write_done of Subslice.t
  | `Program_done of Subslice.t array
  | `Erase_done ]

type flash = {
  flash_pages : int;
  flash_page_size : int;
  flash_read : page:int -> (unit, Error.t) result;
  flash_write : page:int -> Subslice.t -> (unit, Error.t * Subslice.t) result;
      (** Program a whole page: the window must be exactly
          [flash_page_size] bytes, anything else is INVAL. *)
  flash_program :
    page:int -> off:int -> Subslice.t array ->
    (unit, Error.t * Subslice.t array) result;
      (** Scatter-gather program: the windows are laid end to end
          starting at byte [off] of [page] (NOR semantics — bits only
          clear), leaving the rest of the page untouched. One
          completion ([`Program_done]) per batch. This is the log-append
          primitive: no read-modify-write of the whole page. *)
  flash_erase : page:int -> (unit, Error.t) result;
  flash_set_client : (flash_event -> unit) -> unit;
  flash_read_sync : page:int -> bytes;
      (** Memory-mapped read (synchronous, allowed by the hardware). *)
}

type radio = {
  radio_transmit_iov :
    dest:int -> Subslice.t array -> (unit, Error.t * Subslice.t array) result;
      (** The radio's one transmit, scatter-gather: the windows
          (header, payload window(s), trailer; or a single window) go
          to the radio as one frame without being gathered into a
          staging buffer first (the net-stack zero-copy tx path). *)
  radio_set_transmit_iov_client : (Subslice.t array -> unit) -> unit;
  radio_set_receive_client : (src:int -> bytes -> unit) -> unit;
  radio_start_listening : unit -> unit;
  radio_stop : unit -> unit;
  radio_addr : int;
}

type spi_device = {
  spi_transfer : Subslice.t -> (unit, Error.t * Subslice.t) result;
      (** Full-duplex: the window is sent and overwritten with the
          response. *)
  spi_set_client : (Subslice.t -> unit) -> unit;
}

type i2c_device = {
  i2c_write : Subslice.t -> (unit, Error.t * Subslice.t) result;
  i2c_read : Subslice.t -> (unit, Error.t * Subslice.t) result;
      (** Fill the window with a device read. *)
  i2c_write_read :
    write_len:int -> Subslice.t -> (unit, Error.t * Subslice.t) result;
      (** Send the first [write_len] bytes of the window, then fill the
          whole window with the response. *)
  i2c_set_client : ((Subslice.t, Error.t * Subslice.t) result -> unit) -> unit;
}

type adc = {
  adc_channels : int;
  adc_sample : channel:int -> (unit, Error.t) result;
  adc_set_client : (channel:int -> value:int -> unit) -> unit;
}

type gpio_pin = {
  pin_make_output : unit -> unit;
  pin_make_input : unit -> unit;
  pin_set : bool -> unit;
  pin_read : unit -> bool;
  pin_enable_interrupt : [ `Rising | `Falling | `Either ] -> unit;
  pin_disable_interrupt : unit -> unit;
  pin_set_client : (bool -> unit) -> unit;
}
