(* otock-lint: allow-file crypto-confinement — the PKE adaptor is
   trusted core: it marshals wire-format keys/signatures into
   Tock_crypto.Schnorr values on behalf of the modeled engine, exactly
   the role the hw engines play for the other primitives. *)
open Cells

(* Every hardware refusal of a second operation while one is in flight
   ends in "busy". *)
let err_of_string s =
  if String.ends_with ~suffix:"busy" s then Error.BUSY
  else if String.starts_with ~prefix:"bad " s then Error.INVAL
  else Error.FAIL

let alarm (hw : Tock_hw.Hw_timer.t) : Hil.alarm =
  {
    alarm_now = (fun () -> Tock_hw.Hw_timer.now_ticks hw);
    alarm_frequency_hz = Tock_hw.Hw_timer.frequency_hz hw;
    alarm_set =
      (fun ~reference ~dt -> Tock_hw.Hw_timer.set_alarm hw ~reference ~dt);
    alarm_disarm = (fun () -> Tock_hw.Hw_timer.disarm hw);
    alarm_is_armed = (fun () -> Tock_hw.Hw_timer.is_armed hw);
    alarm_set_client = (fun fn -> Tock_hw.Hw_timer.set_client hw fn);
  }

(* The raw (buffer, offset, length) triple behind a window: the DMA
   descriptor the hardware gathers from. Trusted-code-only use of
   [Subslice.underlying], and deliberately uncounted by the copy
   accounting — the hardware's own latch copy is not a software copy. *)
let seg_of sub =
  let off, len = Subslice.window sub in
  (Subslice.underlying sub, off, len)

let segs_of_iov iov = Array.fold_right (fun sub segs -> seg_of sub :: segs) iov []

let uart (hw : Tock_hw.Uart.t) : Hil.uart =
  let tx_inflight : Subslice.t Take_cell.t = Take_cell.empty () in
  let rx_inflight : Subslice.t Take_cell.t = Take_cell.empty () in
  let tx_client = ref (fun (_ : Subslice.t) -> ()) in
  let rx_client = ref (fun (_ : Subslice.t) -> ()) in
  Tock_hw.Uart.set_transmit_client hw (fun ~len:_ ->
      match Take_cell.take tx_inflight with
      | Some sub -> !tx_client sub
      | None -> ());
  Tock_hw.Uart.set_receive_client hw (fun data ->
      match Take_cell.take rx_inflight with
      | Some sub ->
          let n = min (Bytes.length data) (Subslice.length sub) in
          Subslice.blit_from_bytes ~src:data ~src_off:0 sub ~dst_off:0 ~len:n;
          !rx_client sub
      | None -> ());
  {
    uart_transmit =
      (fun sub ->
        if not (Take_cell.is_none tx_inflight) then Error (Error.BUSY, sub)
        else
          match Tock_hw.Uart.transmit_segs hw [ seg_of sub ] with
          | Ok () ->
              Take_cell.put tx_inflight sub;
              Ok ()
          | Error e -> Error (err_of_string e, sub));
    uart_set_transmit_client = (fun fn -> tx_client := fn);
    uart_receive =
      (fun sub ->
        if not (Take_cell.is_none rx_inflight) then Error (Error.BUSY, sub)
        else
          match Tock_hw.Uart.receive hw ~len:(Subslice.length sub) with
          | Ok () ->
              Take_cell.put rx_inflight sub;
              Ok ()
          | Error e -> Error (err_of_string e, sub));
    uart_set_receive_client = (fun fn -> rx_client := fn);
    uart_abort_receive =
      (fun () ->
        Tock_hw.Uart.abort_receive hw;
        ignore (Take_cell.take rx_inflight));
  }

let entropy (hw : Tock_hw.Trng.t) : Hil.entropy =
  {
    entropy_request =
      (fun ~count ->
        Result.map_error err_of_string (Tock_hw.Trng.request hw ~count));
    entropy_set_client = (fun fn -> Tock_hw.Trng.set_client hw fn);
  }

let digest (hw : Tock_hw.Sha_engine.t) : Hil.digest =
  let inflight : Subslice.t Take_cell.t = Take_cell.empty () in
  let data_client = ref (fun (_ : Subslice.t) -> ()) in
  let digest_client = ref (fun (_ : bytes) -> ()) in
  Tock_hw.Sha_engine.set_client hw (function
    | Tock_hw.Sha_engine.Data_done -> (
        match Take_cell.take inflight with
        | Some sub -> !data_client sub
        | None -> ())
    | Tock_hw.Sha_engine.Digest_done d -> !digest_client d);
  {
    digest_set_mode =
      (fun mode ->
        Result.map_error err_of_string
          (match mode with
          | Hil.D_sha256 -> Tock_hw.Sha_engine.set_mode_sha256 hw
          | Hil.D_hmac key -> Tock_hw.Sha_engine.set_mode_hmac hw ~key));
    digest_add_data =
      (fun sub ->
        if not (Take_cell.is_none inflight) then Error (Error.BUSY, sub)
        else
          let off, len = Subslice.window sub in
          match
            Tock_hw.Sha_engine.add_data hw (Subslice.underlying sub) ~off ~len
          with
          | Ok () ->
              Take_cell.put inflight sub;
              Ok ()
          | Error e -> Error (err_of_string e, sub));
    digest_set_data_client = (fun fn -> data_client := fn);
    digest_run =
      (fun () -> Result.map_error err_of_string (Tock_hw.Sha_engine.run hw));
    digest_set_digest_client = (fun fn -> digest_client := fn);
  }

let aes (hw : Tock_hw.Aes_engine.t) : Hil.aes =
  let inflight : Subslice.t Take_cell.t = Take_cell.empty () in
  let client = ref (fun (_ : Subslice.t) -> ()) in
  Tock_hw.Aes_engine.set_client hw (fun out ->
      match Take_cell.take inflight with
      | Some sub ->
          let n = min (Bytes.length out) (Subslice.length sub) in
          Subslice.blit_from_bytes ~src:out ~src_off:0 sub ~dst_off:0 ~len:n;
          !client sub
      | None -> ());
  {
    aes_set_key =
      (fun k -> Result.map_error err_of_string (Tock_hw.Aes_engine.set_key hw k));
    aes_set_iv =
      (fun iv -> Result.map_error err_of_string (Tock_hw.Aes_engine.set_iv hw iv));
    aes_crypt =
      (fun mode sub ->
        if not (Take_cell.is_none inflight) then Error (Error.BUSY, sub)
        else
          let hw_mode =
            match mode with
            | Hil.A_ctr -> Tock_hw.Aes_engine.Ctr
            | Hil.A_ecb_encrypt -> Tock_hw.Aes_engine.Ecb_encrypt
            | Hil.A_ecb_decrypt -> Tock_hw.Aes_engine.Ecb_decrypt
          in
          let off, len = Subslice.window sub in
          match
            Tock_hw.Aes_engine.crypt hw ~mode:hw_mode
              ~src:(Subslice.underlying sub) ~off ~len
          with
          | Ok () ->
              Take_cell.put inflight sub;
              Ok ()
          | Error e -> Error (err_of_string e, sub));
    aes_set_client = (fun fn -> client := fn);
  }

let pke (hw : Tock_hw.Pke_engine.t) : Hil.pke =
  {
    pke_verify =
      (fun ~pubkey ~msg ~signature ->
        match
          ( Tock_crypto.Schnorr.public_key_of_bytes pubkey,
            Tock_crypto.Schnorr.signature_of_bytes signature )
        with
        | Some pk, Some s ->
            Result.map_error err_of_string
              (Tock_hw.Pke_engine.verify hw ~pk ~msg ~signature:s)
        | _ -> Error Error.INVAL);
    pke_set_client = (fun fn -> Tock_hw.Pke_engine.set_client hw fn);
  }

let flash (hw : Tock_hw.Flash_ctrl.t) : Hil.flash =
  let inflight : Subslice.t Take_cell.t = Take_cell.empty () in
  let iov_inflight : Subslice.t array Take_cell.t = Take_cell.empty () in
  let client = ref (fun (_ : Hil.flash_event) -> ()) in
  Tock_hw.Flash_ctrl.set_client hw (fun r ->
      match r with
      | Tock_hw.Flash_ctrl.Read_done b -> !client (`Read_done b)
      | Tock_hw.Flash_ctrl.Write_done -> (
          match Take_cell.take inflight with
          | Some sub -> !client (`Write_done sub)
          | None -> ())
      | Tock_hw.Flash_ctrl.Program_done -> (
          match Take_cell.take iov_inflight with
          | Some iov -> !client (`Program_done iov)
          | None -> ())
      | Tock_hw.Flash_ctrl.Erase_done -> !client `Erase_done);
  {
    flash_pages = Tock_hw.Flash_ctrl.pages hw;
    flash_page_size = Tock_hw.Flash_ctrl.page_size hw;
    flash_read =
      (fun ~page ->
        Result.map_error err_of_string (Tock_hw.Flash_ctrl.read_page hw ~page));
    flash_write =
      (fun ~page sub ->
        if not (Take_cell.is_none inflight && Take_cell.is_none iov_inflight)
        then Error (Error.BUSY, sub)
        else begin
          (* Pad the window to a full page, as the DMA engine requires. *)
          let page_buf = Bytes.make (Tock_hw.Flash_ctrl.page_size hw) '\xff' in
          let n = min (Subslice.length sub) (Bytes.length page_buf) in
          Subslice.blit_to_bytes sub ~src_off:0 ~dst:page_buf ~dst_off:0 ~len:n;
          match Tock_hw.Flash_ctrl.write_page hw ~page page_buf with
          | Ok () ->
              Take_cell.put inflight sub;
              Ok ()
          | Error e -> Error (err_of_string e, sub)
        end);
    flash_program =
      (fun ~page ~off iov ->
        if not (Take_cell.is_none inflight && Take_cell.is_none iov_inflight)
        then Error (Error.BUSY, iov)
        else
          match
            Tock_hw.Flash_ctrl.program_region hw ~page ~off (segs_of_iov iov)
          with
          | Ok () ->
              Take_cell.put iov_inflight iov;
              Ok ()
          | Error e -> Error (err_of_string e, iov));
    flash_erase =
      (fun ~page ->
        Result.map_error err_of_string (Tock_hw.Flash_ctrl.erase_page hw ~page));
    flash_set_client = (fun fn -> client := fn);
    flash_read_sync = (fun ~page -> Tock_hw.Flash_ctrl.read_page_sync hw ~page);
  }

let radio (hw : Tock_hw.Radio.t) : Hil.radio =
  let inflight : Subslice.t array Take_cell.t = Take_cell.empty () in
  let tx_client = ref (fun (_ : Subslice.t array) -> ()) in
  let map_err e =
    match e with
    | "radio off" -> Error.OFF
    | "already transmitting" -> Error.BUSY
    | _ -> Error.SIZE
  in
  Tock_hw.Radio.set_transmit_client hw (fun () ->
      match Take_cell.take inflight with
      | Some iov -> !tx_client iov
      | None -> ());
  {
    radio_transmit_iov =
      (fun ~dest iov ->
        if not (Take_cell.is_none inflight) then Error (Error.BUSY, iov)
        else
          match Tock_hw.Radio.transmit_segs hw ~dest (segs_of_iov iov) with
          | Ok () ->
              Take_cell.put inflight iov;
              Ok ()
          | Error e -> Error (map_err e, iov));
    radio_set_transmit_iov_client = (fun fn -> tx_client := fn);
    radio_set_receive_client = (fun fn -> Tock_hw.Radio.set_receive_client hw fn);
    radio_start_listening = (fun () -> Tock_hw.Radio.start_listening hw);
    radio_stop = (fun () -> Tock_hw.Radio.stop hw);
    radio_addr = Tock_hw.Radio.addr hw;
  }

let spi_device (hw : Tock_hw.Spi.t) ~cs : Hil.spi_device =
  let inflight : Subslice.t Take_cell.t = Take_cell.empty () in
  let client = ref (fun (_ : Subslice.t) -> ()) in
  (* The SPI controller has a single completion callback; each device view
     re-registers on transfer start. The virtualizer above serializes. *)
  {
    spi_transfer =
      (fun sub ->
        if not (Take_cell.is_none inflight) then Error (Error.BUSY, sub)
        else begin
          Tock_hw.Spi.set_client hw (fun ~rx ->
              match Take_cell.take inflight with
              | Some s ->
                  let n = min (Bytes.length rx) (Subslice.length s) in
                  Subslice.blit_from_bytes ~src:rx ~src_off:0 s ~dst_off:0 ~len:n;
                  !client s
              | None -> ());
          let tx = Subslice.to_bytes sub in
          match Tock_hw.Spi.read_write hw ~cs ~tx ~len:(Bytes.length tx) with
          | Ok () ->
              Take_cell.put inflight sub;
              Ok ()
          | Error e -> Error (err_of_string e, sub)
        end);
    spi_set_client = (fun fn -> client := fn);
  }

let i2c_device (hw : Tock_hw.I2c.t) ~addr : Hil.i2c_device =
  let inflight : Subslice.t Take_cell.t = Take_cell.empty () in
  let client =
    ref (fun (_ : (Subslice.t, Error.t * Subslice.t) result) -> ())
  in
  let on_complete code rx =
    match Take_cell.take inflight with
    | Some sub -> (
        match code with
        | Tock_hw.I2c.Done ->
            let n = min (Bytes.length rx) (Subslice.length sub) in
            if n > 0 then
              Subslice.blit_from_bytes ~src:rx ~src_off:0 sub ~dst_off:0 ~len:n;
            !client (Ok sub)
        | Tock_hw.I2c.Nack -> !client (Error (Error.NOACK, sub)))
    | None -> ()
  in
  let start sub op =
    if not (Take_cell.is_none inflight) then Error (Error.BUSY, sub)
    else begin
      Tock_hw.I2c.set_client hw on_complete;
      match op () with
      | Ok () ->
          Take_cell.put inflight sub;
          Ok ()
      | Error e -> Error (err_of_string e, sub)
    end
  in
  {
    i2c_write =
      (fun sub ->
        start sub (fun () -> Tock_hw.I2c.write hw ~addr (Subslice.to_bytes sub)));
    i2c_read =
      (fun sub ->
        start sub (fun () ->
            Tock_hw.I2c.read hw ~addr ~len:(Subslice.length sub)));
    i2c_write_read =
      (fun ~write_len sub ->
        let wl = min write_len (Subslice.length sub) in
        let prefix = Bytes.sub (Subslice.to_bytes sub) 0 wl in
        start sub (fun () ->
            Tock_hw.I2c.write_read hw ~addr prefix
              ~read_len:(Subslice.length sub)));
    i2c_set_client = (fun fn -> client := fn);
  }

let gpio_pin (hw : Tock_hw.Gpio.t) ~pin : Hil.gpio_pin =
  {
    pin_make_output = (fun () -> Tock_hw.Gpio.set_mode hw ~pin Tock_hw.Gpio.Output);
    pin_make_input = (fun () -> Tock_hw.Gpio.set_mode hw ~pin Tock_hw.Gpio.Input);
    pin_set = (fun v -> Tock_hw.Gpio.set hw ~pin v);
    pin_read = (fun () -> Tock_hw.Gpio.read hw ~pin);
    pin_enable_interrupt =
      (fun edge ->
        let e =
          match edge with
          | `Rising -> Tock_hw.Gpio.Rising
          | `Falling -> Tock_hw.Gpio.Falling
          | `Either -> Tock_hw.Gpio.Either
        in
        Tock_hw.Gpio.enable_interrupt hw ~pin e);
    pin_disable_interrupt = (fun () -> Tock_hw.Gpio.disable_interrupt hw ~pin);
    pin_set_client = (fun fn -> Tock_hw.Gpio.set_pin_client hw ~pin fn);
  }

let adc (hw : Tock_hw.Adc.t) : Hil.adc =
  {
    adc_channels = Tock_hw.Adc.channel_count hw;
    adc_sample =
      (fun ~channel ->
        Result.map_error err_of_string (Tock_hw.Adc.sample hw ~channel));
    adc_set_client = (fun fn -> Tock_hw.Adc.set_client hw fn);
  }
