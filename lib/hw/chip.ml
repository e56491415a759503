type timing = {
  syscall_overhead : int;
  context_switch : int;
  kernel_loop_overhead : int;
  upcall_push : int;
}

type t = {
  name : string;
  sim : Sim.t;
  irq : Irq.t;
  mpu : Mpu.t;
  timing : timing;
  uart0 : Uart.t;
  uart1 : Uart.t;
  spi : Spi.t;
  i2c : I2c.t;
  gpio : Gpio.t;
  adc : Adc.t;
  timer : Hw_timer.t;
  trng : Trng.t;
  sha : Sha_engine.t;
  sha_boot : Sha_engine.t;
  aes : Aes_engine.t;
  pke : Pke_engine.t;
  flash : Flash_ctrl.t;
  radio : Radio.t option;
  cpu_meter : Sim.meter;
}

(* Interrupt line plan shared by both chips. *)
let line_uart0 = 1
let line_uart1 = 2
let line_spi = 3
let line_i2c = 4
let line_gpio = 5
let line_timer = 6
let line_trng = 7
let line_sha = 8
let line_sha_boot = 13
let line_aes = 9
let line_pke = 10
let line_flash = 11
let line_radio = 12
let line_adc = 14

(* The controller holds exactly the lines of the plan: 0 to [line_adc],
   the highest. *)
let lines = line_adc + 1

let build ~name ~mpu_flavor ~spi_cap ~cycles_per_tick ~timing ?ether
    ?(radio_addr = 0x0001) sim =
  let irq = Irq.create ~lines sim in
  let uart0 = Uart.create sim irq ~irq_line:line_uart0 ~name:"uart0" in
  let uart1 = Uart.create sim irq ~irq_line:line_uart1 ~name:"uart1" in
  let spi =
    Spi.create sim irq ~irq_line:line_spi ~cs_capability:spi_cap
      ~cycles_per_byte:20
  in
  let i2c = I2c.create sim irq ~irq_line:line_i2c ~cycles_per_byte:160 in
  let gpio = Gpio.create sim irq ~irq_line:line_gpio ~pins:32 in
  let adc =
    (* channel 0: battery voltage slowly sagging; 1: light-dependent
       resistor; 2: noise floor *)
    Adc.create sim irq ~irq_line:line_adc ~cycles_per_sample:250
      ~channels:
        [|
          (fun now -> 3300 - (now / 8_000_000));
          (fun now -> 1200 + (now / 100_000 mod 640));
          (fun now -> 40 + (now mod 13));
        |]
  in
  let timer = Hw_timer.create sim irq ~irq_line:line_timer ~cycles_per_tick in
  let trng = Trng.create sim irq ~irq_line:line_trng ~cycles_per_word:400 in
  let sha = Sha_engine.create sim irq ~irq_line:line_sha ~cycles_per_block:80 in
  let sha_boot =
    Sha_engine.create sim irq ~irq_line:line_sha_boot ~cycles_per_block:80
  in
  let aes = Aes_engine.create sim irq ~irq_line:line_aes ~cycles_per_block:40 in
  let pke =
    Pke_engine.create sim irq ~irq_line:line_pke ~cycles_per_verify:120_000
  in
  let flash =
    Flash_ctrl.create sim irq ~irq_line:line_flash ~pages:1024 ~page_size:512
      ~read_cycles:100 ~write_cycles:4_000 ~erase_cycles:60_000
  in
  let radio =
    Option.map
      (fun e -> Radio.create e irq ~irq_line:line_radio ~addr:radio_addr)
      ether
  in
  let cpu_meter = Sim.meter sim ~name:(name ^ "-cpu") in
  Sim.meter_set_ua sim cpu_meter 4_000;
  {
    name;
    sim;
    irq;
    mpu = Mpu.create mpu_flavor;
    timing;
    uart0;
    uart1;
    spi;
    i2c;
    gpio;
    adc;
    timer;
    trng;
    sha;
    sha_boot;
    aes;
    pke;
    flash;
    radio;
    cpu_meter;
  }

let sam4l_like ?ether ?radio_addr sim =
  build ~name:"sam4l_like" ~mpu_flavor:Mpu.Cortex_m
    ~spi_cap:Spi.Only_active_low ~cycles_per_tick:1024
    ~timing:
      {
        syscall_overhead = 150;
        context_switch = 200;
        kernel_loop_overhead = 40;
        upcall_push = 25;
      }
    ?ether ?radio_addr sim

let rv32_like ?ether ?radio_addr sim =
  build ~name:"rv32_like" ~mpu_flavor:Mpu.Pmp ~spi_cap:Spi.Configurable
    ~cycles_per_tick:512
    ~timing:
      {
        syscall_overhead = 600;
        context_switch = 350;
        kernel_loop_overhead = 60;
        upcall_push = 35;
      }
    ?ether ?radio_addr sim

let cpu_set_active t active =
  Sim.meter_set_ua t.sim t.cpu_meter (if active then 4_000 else 5)
