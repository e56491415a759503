type alarm = {
  alarm_now : unit -> int;
  alarm_frequency_hz : int;
  alarm_set : reference:int -> dt:int -> unit;
  alarm_disarm : unit -> unit;
  alarm_set_client : (unit -> unit) -> unit;
}

type uart = {
  uart_transmit : Subslice.t -> (unit, Error.t * Subslice.t) result;
  uart_set_transmit_client : (Subslice.t -> unit) -> unit;
  uart_receive : Subslice.t -> (unit, Error.t * Subslice.t) result;
  uart_set_receive_client : (Subslice.t -> (unit, Error.t) result -> unit) -> unit;
  uart_abort_receive : unit -> unit;
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
  flash_program :
    page:int -> off:int -> Subslice.t array ->
    (unit, Error.t * Subslice.t array) result;
  flash_erase : page:int -> (unit, Error.t) result;
  flash_set_client : (flash_event -> unit) -> unit;
  flash_read_sync : page:int -> bytes;
}

type radio = {
  radio_transmit_iov :
    dest:int -> Subslice.t array -> (unit, Error.t * Subslice.t array) result;
  radio_set_transmit_iov_client : (Subslice.t array -> unit) -> unit;
  radio_set_receive_client : (src:int -> bytes -> unit) -> unit;
  radio_start_listening : unit -> unit;
  radio_stop : unit -> unit;
  radio_addr : int;
}

type spi_device = {
  spi_transfer : Subslice.t -> (unit, Error.t * Subslice.t) result;
  spi_set_client : (Subslice.t -> unit) -> unit;
}

type i2c_device = {
  i2c_write : Subslice.t -> (unit, Error.t * Subslice.t) result;
  i2c_read : Subslice.t -> (unit, Error.t * Subslice.t) result;
  i2c_write_read :
    write_len:int -> Subslice.t -> (unit, Error.t * Subslice.t) result;
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
