(* otock-lint: allow-file crypto-confinement — the PKE adaptor is
   trusted core: it marshals wire-format keys/signatures into
   Tock_crypto.Schnorr values on behalf of the modeled engine, exactly
   the role the hw engines play for the other primitives. *)
open Cells

(* The one map from a hardware refusal to the code every adaptor
   returns. *)
let code_of_refusal : Tock_hw.Completion.refusal -> Error.t = function
  | Busy _ -> Error.BUSY
  | Invalid _ -> Error.INVAL
  | Size _ -> Error.SIZE

(* The in-flight protocol of every buffer-moving operation (paper §4.2):
   while [cell] holds a buffer, a second operation is refused with BUSY
   and [buf] comes straight back. Otherwise [start] runs the hardware:
   on acceptance [held] waits in [cell] for the completion, on refusal
   [buf] comes back with the refusal's code. *)
let inflight cell ~held buf start =
  if not (Take_cell.is_none cell) then Error (Error.BUSY, buf)
  else
    match start () with
    | Ok () ->
        Take_cell.put cell held;
        Ok ()
    | Error r -> Error (code_of_refusal r, buf)

let alarm (hw : Tock_hw.Hw_timer.t) : Hil.alarm =
  {
    alarm_now = (fun () -> Tock_hw.Hw_timer.now_ticks hw);
    alarm_frequency_hz = Tock_hw.Hw_timer.frequency_hz hw;
    alarm_set =
      (fun ~reference ~dt -> Tock_hw.Hw_timer.set_alarm hw ~reference ~dt);
    alarm_disarm = (fun () -> Tock_hw.Hw_timer.disarm hw);
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
  let rx_client = ref (fun (_ : Subslice.t) (_ : (unit, Error.t) result) -> ()) in
  Tock_hw.Uart.set_transmit_client hw (fun ~len:_ ->
      match Take_cell.take tx_inflight with
      | Some sub -> !tx_client sub
      | None -> ());
  Tock_hw.Uart.set_receive_client hw (fun data ->
      match (Take_cell.take rx_inflight, data) with
      | Some sub, Some data ->
          let n = min (Bytes.length data) (Subslice.length sub) in
          Subslice.blit_from_bytes ~src:data ~src_off:0 sub ~dst_off:0 ~len:n;
          !rx_client sub (Ok ())
      | Some sub, None -> !rx_client sub (Error Error.CANCEL)
      | None, _ -> ());
  {
    uart_transmit =
      (fun sub ->
        inflight tx_inflight ~held:sub sub (fun () ->
            Tock_hw.Uart.transmit_segs hw [ seg_of sub ]));
    uart_set_transmit_client = (fun fn -> tx_client := fn);
    uart_receive =
      (fun sub ->
        inflight rx_inflight ~held:sub sub (fun () ->
            Tock_hw.Uart.receive hw ~len:(Subslice.length sub)));
    uart_set_receive_client = (fun fn -> rx_client := fn);
    uart_abort_receive = (fun () -> Tock_hw.Uart.abort_receive hw);
  }

let entropy (hw : Tock_hw.Trng.t) : Hil.entropy =
  {
    entropy_request =
      (fun ~count ->
        Result.map_error code_of_refusal (Tock_hw.Trng.request hw ~count));
    entropy_set_client = (fun fn -> Tock_hw.Trng.set_client hw fn);
  }

let digest (hw : Tock_hw.Sha_engine.t) : Hil.digest =
  let cell : Subslice.t Take_cell.t = Take_cell.empty () in
  let data_client = ref (fun (_ : Subslice.t) -> ()) in
  let digest_client = ref (fun (_ : bytes) -> ()) in
  Tock_hw.Sha_engine.set_client hw (function
    | Tock_hw.Sha_engine.Data_done -> (
        match Take_cell.take cell with
        | Some sub -> !data_client sub
        | None -> ())
    | Tock_hw.Sha_engine.Digest_done d -> !digest_client d);
  {
    digest_set_mode =
      (fun mode ->
        Result.map_error code_of_refusal
          (match mode with
          | Hil.D_sha256 -> Tock_hw.Sha_engine.set_mode_sha256 hw
          | Hil.D_hmac key -> Tock_hw.Sha_engine.set_mode_hmac hw ~key));
    digest_add_data =
      (fun sub ->
        inflight cell ~held:sub sub (fun () ->
            let b, off, len = seg_of sub in
            Tock_hw.Sha_engine.add_data hw b ~off ~len));
    digest_set_data_client = (fun fn -> data_client := fn);
    digest_run =
      (fun () -> Result.map_error code_of_refusal (Tock_hw.Sha_engine.run hw));
    digest_set_digest_client = (fun fn -> digest_client := fn);
  }

let aes (hw : Tock_hw.Aes_engine.t) : Hil.aes =
  let cell : Subslice.t Take_cell.t = Take_cell.empty () in
  let client = ref (fun (_ : Subslice.t) -> ()) in
  Tock_hw.Aes_engine.set_client hw (fun out ->
      match Take_cell.take cell with
      | Some sub ->
          let n = min (Bytes.length out) (Subslice.length sub) in
          Subslice.blit_from_bytes ~src:out ~src_off:0 sub ~dst_off:0 ~len:n;
          !client sub
      | None -> ());
  {
    aes_set_key =
      (fun k -> Result.map_error code_of_refusal (Tock_hw.Aes_engine.set_key hw k));
    aes_set_iv =
      (fun iv -> Result.map_error code_of_refusal (Tock_hw.Aes_engine.set_iv hw iv));
    aes_crypt =
      (fun mode sub ->
        let mode =
          match mode with
          | Hil.A_ctr -> Tock_hw.Aes_engine.Ctr
          | Hil.A_ecb_encrypt -> Tock_hw.Aes_engine.Ecb_encrypt
          | Hil.A_ecb_decrypt -> Tock_hw.Aes_engine.Ecb_decrypt
        in
        inflight cell ~held:sub sub (fun () ->
            let src, off, len = seg_of sub in
            Tock_hw.Aes_engine.crypt hw ~mode ~src ~off ~len));
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
            Result.map_error code_of_refusal
              (Tock_hw.Pke_engine.verify hw ~pk ~msg ~signature:s)
        | _ -> Error Error.INVAL);
    pke_set_client = (fun fn -> Tock_hw.Pke_engine.set_client hw fn);
  }

let flash (hw : Tock_hw.Flash_ctrl.t) : Hil.flash =
  (* The event the write or program in flight completes with. *)
  let cell : Hil.flash_event Take_cell.t = Take_cell.empty () in
  let client = ref (fun (_ : Hil.flash_event) -> ()) in
  Tock_hw.Flash_ctrl.set_client hw (function
    | Tock_hw.Flash_ctrl.Read_done b -> !client (`Read_done b)
    | Tock_hw.Flash_ctrl.Write_done | Tock_hw.Flash_ctrl.Program_done -> (
        match Take_cell.take cell with
        | Some ev -> !client ev
        | None -> ())
    | Tock_hw.Flash_ctrl.Erase_done -> !client `Erase_done);
  {
    flash_pages = Tock_hw.Flash_ctrl.pages hw;
    flash_page_size = Tock_hw.Flash_ctrl.page_size hw;
    flash_read =
      (fun ~page ->
        Result.map_error code_of_refusal (Tock_hw.Flash_ctrl.read_page hw ~page));
    flash_write =
      (fun ~page sub ->
        inflight cell ~held:(`Write_done sub) sub (fun () ->
            Tock_hw.Flash_ctrl.write_page hw ~page [ seg_of sub ]));
    flash_program =
      (fun ~page ~off iov ->
        inflight cell ~held:(`Program_done iov) iov (fun () ->
            Tock_hw.Flash_ctrl.program_region hw ~page ~off (segs_of_iov iov)));
    flash_erase =
      (fun ~page ->
        Result.map_error code_of_refusal (Tock_hw.Flash_ctrl.erase_page hw ~page));
    flash_set_client = (fun fn -> client := fn);
    flash_read_sync = (fun ~page -> Tock_hw.Flash_ctrl.read_page_sync hw ~page);
  }

let radio (hw : Tock_hw.Radio.t) : Hil.radio =
  let cell : Subslice.t array Take_cell.t = Take_cell.empty () in
  let tx_client = ref (fun (_ : Subslice.t array) -> ()) in
  Tock_hw.Radio.set_transmit_client hw (fun () ->
      match Take_cell.take cell with
      | Some iov -> !tx_client iov
      | None -> ());
  {
    radio_transmit_iov =
      (fun ~dest iov ->
        inflight cell ~held:iov iov (fun () ->
            Tock_hw.Radio.transmit_segs hw ~dest (segs_of_iov iov)));
    radio_set_transmit_iov_client = (fun fn -> tx_client := fn);
    radio_set_receive_client = (fun fn -> Tock_hw.Radio.set_receive_client hw fn);
    radio_start_listening = (fun () -> Tock_hw.Radio.start_listening hw);
    radio_stop = (fun () -> Tock_hw.Radio.stop hw);
    radio_addr = Tock_hw.Radio.addr hw;
  }

let spi_device (hw : Tock_hw.Spi.t) ~cs : Hil.spi_device =
  let cell : Subslice.t Take_cell.t = Take_cell.empty () in
  let client = ref (fun (_ : Subslice.t) -> ()) in
  let on_rx ~rx =
    match Take_cell.take cell with
    | Some s ->
        let n = min (Bytes.length rx) (Subslice.length s) in
        Subslice.blit_from_bytes ~src:rx ~src_off:0 s ~dst_off:0 ~len:n;
        !client s
    | None -> ()
  in
  {
    spi_transfer =
      (fun sub ->
        inflight cell ~held:sub sub (fun () ->
            (* The controller has one completion callback: the view
               whose transfer it accepts claims it. *)
            let r = Tock_hw.Spi.read_write hw ~cs [ seg_of sub ] in
            if Result.is_ok r then Tock_hw.Spi.set_client hw on_rx;
            r));
    spi_set_client = (fun fn -> client := fn);
  }

let i2c_device (hw : Tock_hw.I2c.t) ~addr : Hil.i2c_device =
  let cell : Subslice.t Take_cell.t = Take_cell.empty () in
  let client =
    ref (fun (_ : (Subslice.t, Error.t * Subslice.t) result) -> ())
  in
  let on_complete code rx =
    match Take_cell.take cell with
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
  (* The bus has one completion callback: the view whose transaction it
     accepts claims it. *)
  let start sub op =
    inflight cell ~held:sub sub (fun () ->
        let r = op () in
        if Result.is_ok r then Tock_hw.I2c.set_client hw on_complete;
        r)
  in
  {
    i2c_write =
      (fun sub -> start sub (fun () -> Tock_hw.I2c.write hw ~addr [ seg_of sub ]));
    i2c_read =
      (fun sub ->
        start sub (fun () ->
            Tock_hw.I2c.read hw ~addr ~len:(Subslice.length sub)));
    i2c_write_read =
      (fun ~write_len sub ->
        let b, off, len = seg_of sub in
        start sub (fun () ->
            Tock_hw.I2c.write_read hw ~addr
              [ (b, off, min write_len len) ]
              ~read_len:len));
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
        Result.map_error code_of_refusal (Tock_hw.Adc.sample hw ~channel));
    adc_set_client = (fun fn -> Tock_hw.Adc.set_client hw fn);
  }
