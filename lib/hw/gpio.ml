type mode = Input | Output

type edge = Rising | Falling | Either

type pin_state = {
  mutable pin_mode : mode;
  mutable level : bool;
  mutable interrupt : edge option;
  mutable client : bool -> unit;
  mutable latched : bool;
}

type t = { sim : Sim.t; irq : Irq.t; irq_line : int; pins : pin_state array }

let create sim irq ~irq_line ~pins =
  let t =
    {
      sim;
      irq;
      irq_line;
      pins =
        Array.init pins (fun _ ->
            {
              pin_mode = Input;
              level = false;
              interrupt = None;
              client = ignore;
              latched = false;
            });
    }
  in
  Irq.register irq ~line:irq_line ~name:"gpio" (fun () ->
      Array.iter
        (fun p ->
          if p.latched then begin
            p.latched <- false;
            p.client p.level
          end)
        t.pins);
  Irq.enable irq ~line:irq_line;
  t

let pin t i =
  if i < 0 || i >= Array.length t.pins then invalid_arg "Gpio: bad pin";
  t.pins.(i)

let set_mode t ~pin:i m = (pin t i).pin_mode <- m

let set t ~pin:i v =
  let p = pin t i in
  if p.pin_mode = Output then p.level <- v
  else
    let tr = Sim.trace_events t.sim in
    if Tock_obs.Trace.on tr then
      Tock_obs.Trace.note tr ~ts:(Sim.now t.sim)
        (Printf.sprintf "gpio: write to input pin %d ignored" i)

let read t ~pin:i = (pin t i).level

let drive t ~pin:i v =
  let p = pin t i in
  if p.pin_mode = Input && p.level <> v then begin
    let was = p.level in
    p.level <- v;
    let edge_matches =
      match p.interrupt with
      | Some Rising -> (not was) && v
      | Some Falling -> was && not v
      | Some Either -> true
      | None -> false
    in
    if edge_matches then begin
      p.latched <- true;
      Irq.set_pending t.irq ~line:t.irq_line
    end
  end
  else p.level <- v

let enable_interrupt t ~pin:i e = (pin t i).interrupt <- Some e

let disable_interrupt t ~pin:i = (pin t i).interrupt <- None

let set_pin_client t ~pin:i fn = (pin t i).client <- fn

module Led = struct
  type led = {
    bank : t;
    l_pin : int;
    active_high : bool;
    mutable transitions : int;
    mutable lit : bool;
  }

  let attach bank ~pin:i ~active_high =
    set_mode bank ~pin:i Output;
    set bank ~pin:i (not active_high);
    { bank; l_pin = i; active_high; transitions = 0; lit = false }

  let put led lit =
    if led.lit <> lit then begin
      led.lit <- lit;
      led.transitions <- led.transitions + 1;
      set led.bank ~pin:led.l_pin (if led.active_high then lit else not lit)
    end

  let on led = put led true

  let toggle led = put led (not led.lit)

  let is_lit led = led.lit

  let transitions led = led.transitions
end

module Button = struct
  type button = { bank : t; b_pin : int; active_high : bool }

  let attach bank ~pin:i ~active_high =
    set_mode bank ~pin:i Input;
    drive bank ~pin:i (not active_high);
    { bank; b_pin = i; active_high }

  let press b = drive b.bank ~pin:b.b_pin b.active_high

  let is_pressed b = read b.bank ~pin:b.b_pin = b.active_high
end
