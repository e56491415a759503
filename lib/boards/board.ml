open Tock
open Tock_capsules
module Frame = Tock_obs.Frame
module Flash_ctrl = Tock_hw.Flash_ctrl

type t = {
  kernel : Kernel.t;
  chip : Tock_hw.Chip.t;
  sim : Tock_hw.Sim.t;
  console : Console.t;
  alarm_mux : Alarm_mux.t;
  kv : Kv_store.t;
  ipc : Ipc.t;
  process_console : Process_console.t;
  debug : Debug_writer.t;
  net : Net_stack.t option;
  legacy : Legacy_console.t;
  checker_digest : Hil.digest;
  checker_pke : Hil.pke;
  uart_log : Buffer.t;
  main_cap : Capability.main_loop;
  pm_cap : Capability.process_management;
  ext_cap : Capability.external_process;
}

let flash_app_base = 0x0010_0000

let build ?config (chip : Tock_hw.Chip.t) =
  let sim = chip.Tock_hw.Chip.sim in
  let kernel = Kernel.create ?config chip in
  (* Capabilities: minted here and nowhere else. *)
  let main_cap = Capability.Trusted_mint.main_loop () in
  let pm_cap = Capability.Trusted_mint.process_management () in
  let ext_cap = Capability.Trusted_mint.external_process () in
  let grant_cap = Capability.Trusted_mint.memory_allocation () in
  (* UART capture for tests/examples. *)
  let uart_log = Buffer.create 512 in
  Tock_hw.Uart.set_tx_sink chip.Tock_hw.Chip.uart0 (fun b ->
      Buffer.add_bytes uart_log b);
  (* HILs (one adaptor per peripheral). *)
  let uart0 = Adaptors.uart chip.Tock_hw.Chip.uart0 in
  let alarm_hil = Adaptors.alarm chip.Tock_hw.Chip.timer in
  let entropy = Adaptors.entropy chip.Tock_hw.Chip.trng in
  let digest = Adaptors.digest chip.Tock_hw.Chip.sha in
  let boot_digest = Adaptors.digest chip.Tock_hw.Chip.sha_boot in
  let aes = Adaptors.aes chip.Tock_hw.Chip.aes in
  let pke = Adaptors.pke chip.Tock_hw.Chip.pke in
  let flash = Adaptors.flash chip.Tock_hw.Chip.flash in
  (* Virtualizers. *)
  let umux = Uart_mux.create uart0 in
  let amux = Alarm_mux.create ~obs:(Kernel.obs kernel) alarm_hil in
  let fmux = Flash_mux.create flash in
  (* Capsules. *)
  let console = Console.create kernel (Uart_mux.new_device umux) ~grant_cap in
  let alarm_drv = Alarm_driver.create kernel amux ~grant_cap in
  let leds =
    Led_driver.create
      ~leds:(Array.init 4 (fun i -> Adaptors.gpio_pin chip.Tock_hw.Chip.gpio ~pin:i))
      ~active_high:false
  in
  let buttons =
    Button_driver.create kernel
      ~buttons:
        (Array.init 2 (fun i ->
             Adaptors.gpio_pin chip.Tock_hw.Chip.gpio ~pin:(4 + i)))
      ~active_high:true ~grant_cap
  in
  let gpio =
    Gpio_driver.create kernel
      ~pins:
        (Array.init 8 (fun i ->
             Adaptors.gpio_pin chip.Tock_hw.Chip.gpio ~pin:(8 + i)))
  in
  let rng = Rng_driver.create kernel entropy ~grant_cap in
  let adc_drv = Adc_driver.create kernel (Adaptors.adc chip.Tock_hw.Chip.adc) in
  let digest_drv = Digest_driver.create kernel digest in
  let aes_drv = Aes_driver.create kernel aes in
  let kv = Kv_store.create kernel (Flash_mux.new_client fmux) ~first_page:0 ~pages:16 in
  let nv =
    Nonvolatile_storage.create kernel (Flash_mux.new_client fmux) ~first_page:16
      ~pages_per_app:4 ~max_apps:8
  in
  let ipc = Ipc.create kernel in
  let process_console =
    Process_console.create kernel (Uart_mux.new_device umux) ~cap:pm_cap
  in
  let legacy = Legacy_console.create kernel amux in
  let debug = Debug_writer.create (Uart_mux.new_device umux) in
  (* Board-level freezer sections: state a frozen witness must carry
     that lives outside the kernel — the UART capture buffer, and the
     flash part: pages with materialized backing (erased pages are
     elided; see Flash_ctrl), then its dirty-write count and the wear
     of every page erased at least once. The counters come last, so a
     section that ends after the pages is an [Error]. Both load after
     the process patch ([`Post]). *)
  Kernel.register_freezer kernel ~name:"uart_log" ~phase:`Post
    ~save:(fun buf -> Buffer.add_buffer buf uart_log)
    ~load:(fun r ->
      Buffer.clear uart_log;
      Buffer.add_string uart_log (Frame.rest r));
  let flash_ctrl = chip.Tock_hw.Chip.flash in
  let count iter =
    let n = ref 0 in
    iter flash_ctrl (fun ~page:_ _ -> Stdlib.incr n);
    !n
  in
  Kernel.register_freezer kernel ~name:"flash" ~phase:`Post
    ~save:(fun buf ->
      Frame.add_int buf (count Flash_ctrl.iter_dirty_pages);
      Flash_ctrl.iter_dirty_pages flash_ctrl (fun ~page data ->
          Frame.add_int buf page;
          Frame.add_string buf (Bytes.to_string data));
      Frame.add_int buf (Flash_ctrl.dirty_writes flash_ctrl);
      Frame.add_int buf (count Flash_ctrl.iter_worn_pages);
      Flash_ctrl.iter_worn_pages flash_ctrl (fun ~page n ->
          Frame.add_int buf page;
          Frame.add_int buf n))
    ~load:(fun r ->
      ignore
      @@ Frame.list r ~min:16 (fun r ->
             let page = Frame.int r in
             let data = Frame.string r in
             try Flash_ctrl.restore_page flash_ctrl ~page (Bytes.of_string data)
             with Invalid_argument m -> Frame.fail "flash page %d: %s" page m);
      let dirty_writes = Frame.int r in
      let wear =
        Frame.list r ~min:16 (fun r ->
            let page = Frame.int r in
            (page, Frame.int r))
      in
      try Flash_ctrl.restore_counters flash_ctrl ~dirty_writes ~wear
      with Invalid_argument m -> Frame.fail "flash counters: %s" m);
  Kernel.set_fault_hook kernel (fun proc reason ->
      Debug_writer.printf debug
        "panicked process: %s (pid %d)\r\n  reason: %s\r\n  ram: 0x%08x-0x%08x app_brk=0x%08x kernel_brk=0x%08x\r\n  restarts: %d, syscalls: %d"
        (Process.name proc) (Process.id proc)
        (Process.describe_fault reason)
        (Process.ram_base proc) (Process.ram_end proc)
        (Process.app_break proc) (Process.kernel_break proc)
        (Process.restart_count proc) (Process.syscall_count proc));
  let env = Tock_hw.Sensors.default_env ~clock_hz:(Tock_hw.Sim.clock_hz sim) in
  List.iter
    (Tock_hw.Sensors.attach sim chip.Tock_hw.Chip.i2c env)
    [ Tock_hw.Sensors.Temperature; Tock_hw.Sensors.Pressure;
      Tock_hw.Sensors.Light; Tock_hw.Sensors.Accel ];
  let temperature =
    Sensor_driver.create kernel
      (Adaptors.i2c_device chip.Tock_hw.Chip.i2c
         ~addr:(Tock_hw.Sensors.i2c_addr Tock_hw.Sensors.Temperature))
      ~driver_num:Driver_num.temperature ~name:"temperature"
  in
  let pressure =
    Sensor_driver.create kernel
      (Adaptors.i2c_device chip.Tock_hw.Chip.i2c
         ~addr:(Tock_hw.Sensors.i2c_addr Tock_hw.Sensors.Pressure))
      ~driver_num:Driver_num.pressure ~name:"pressure"
  in
  let light =
    Sensor_driver.create kernel
      (Adaptors.i2c_device chip.Tock_hw.Chip.i2c
         ~addr:(Tock_hw.Sensors.i2c_addr Tock_hw.Sensors.Light))
      ~driver_num:Driver_num.light ~name:"light"
  in
  (* Register the syscall drivers. *)
  List.iter (Kernel.register_driver kernel)
    [
      Console.driver console;
      Alarm_driver.driver alarm_drv;
      Led_driver.driver leds;
      Button_driver.driver buttons;
      Gpio_driver.driver gpio;
      Rng_driver.driver rng;
      Adc_driver.driver adc_drv;
      Digest_driver.driver_hmac digest_drv;
      Digest_driver.driver_sha digest_drv;
      Aes_driver.driver aes_drv;
      Kv_store.driver kv;
      Nonvolatile_storage.driver nv;
      Ipc.driver ipc;
      Process_info.driver (Process_info.create kernel);
      Sensor_driver.driver temperature;
      Sensor_driver.driver pressure;
      Sensor_driver.driver light;
      Legacy_console.driver legacy;
    ];
  let net =
    match chip.Tock_hw.Chip.radio with
    | Some r ->
        let radio_hil = Adaptors.radio r in
        (* The reliable link layer owns the radio; the raw driver rides its
           pass-through view, so both syscall interfaces coexist. *)
        (* Ack timeout must exceed the worst-case round trip: a full
           127-byte frame (~63k cycles of air time at 250 kbit/s) plus the
           ack (~12k). 160 ticks @1024 cycles/tick leaves margin — a
           shorter timeout makes the sender retransmit into its own ack
           and collide, livelocking large fragments. *)
        let net = Net_stack.create kernel radio_hil amux ~ack_timeout_ticks:160 in
        Kernel.register_driver kernel (Net_stack.driver net);
        Kernel.register_driver kernel
          (Radio_driver.driver
             (Radio_driver.create kernel (Net_stack.raw_radio net)));
        Some net
    | None -> None
  in
  {
    kernel;
    chip;
    sim;
    console;
    alarm_mux = amux;
    kv;
    ipc;
    process_console;
    debug;
    net;
    legacy;
    checker_digest = boot_digest;
    checker_pke = pke;
    uart_log;
    main_cap;
    pm_cap;
    ext_cap;
  }

let run_cycles t n = Kernel.run_cycles t.kernel ~cap:t.main_cap n

let run_until t ?max_cycles pred =
  Kernel.run_until t.kernel ~cap:t.main_cap ?max_cycles pred

let all_processes_done t =
  List.for_all
    (fun p ->
      match Process.state p with
      | Process.Terminated _ | Process.Faulted _ -> true
      | _ -> false)
    (Kernel.processes t.kernel)

let run_to_completion t ?(max_cycles = 2_000_000_000) () =
  ignore (run_until t ~max_cycles (fun () -> all_processes_done t))

let output t = Buffer.contents t.uart_log

let add_app t ~name ?(min_ram = 4096) ?flash ?storage main =
  let flash = Option.value flash ~default:(Bytes.of_string name) in
  Kernel.create_process t.kernel ~cap:t.pm_cap ~name ~flash_base:flash_app_base
    ~flash ~min_ram ?storage
    ~factory:(Tock_userland.Apps.to_factory main)
    ()

let load_tbf_sync t ~flash ~registry =
  Process_loader.load_sync t.kernel ~cap:t.pm_cap ~flash_base:flash_app_base
    ~flash
    ~lookup:(Tock_userland.Apps.registry registry)
