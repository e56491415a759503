type node = { node_board : Board.t; node_addr : int }

type t = {
  sim : Tock_hw.Sim.t;
  ether : Tock_hw.Radio.Ether.t;
  nodes : node list;
}

let create ?(seed = 0x5169_0A0BL) ?(loss_prob = 0.0) ?(trace_capacity = 0)
    ~nodes:n () =
  let sim = Tock_hw.Sim.create ~seed ~trace_capacity () in
  let ether = Tock_hw.Radio.Ether.create sim ~loss_prob () in
  let nodes =
    List.init n (fun i ->
        let addr = 0x100 + i in
        let chip = Tock_hw.Chip.sam4l_like ~ether ~radio_addr:addr sim in
        { node_board = Board.build chip; node_addr = addr })
  in
  { sim; ether; nodes }

(* Busy-step one kernel while it has work, without sleeping (a kernel's
   [step] sleeping would jump the shared clock, so probe work first).
   Returns true if any step did work. *)
let drain_node n =
  let b = n.node_board in
  let k = b.Board.kernel in
  let worked = ref false in
  let rec drain budget =
    if budget > 0 && Tock.Kernel.has_work k then begin
      (match Tock.Kernel.step k ~cap:b.Board.main_cap with
      | `Worked -> worked := true
      | `Slept | `Stalled -> ());
      drain (budget - 1)
    end
  in
  drain 1000;
  !worked

(* All CPUs deep-sleep and the shared clock advances to [time]; events
   due in the interval fire at their own deadlines. *)
let sleep_all_to t time =
  if time > Tock_hw.Sim.now t.sim then begin
    List.iter
      (fun n -> Tock_hw.Chip.cpu_set_active n.node_board.Board.chip false)
      t.nodes;
    Tock_hw.Sim.sleep_until t.sim time;
    List.iter
      (fun n -> Tock_hw.Chip.cpu_set_active n.node_board.Board.chip true)
      t.nodes
  end

(* One shared clock, several kernels: give every kernel a chance to do
   work; only sleep the clock when all are idle. Like
   [Kernel.run_to_deadline], the group never sleeps past [deadline]:
   when everyone is idle and the next event is at or beyond it, the
   group reports [`Asleep] so the fleet calendar can park it. *)
let run_to_deadline t ~deadline =
  let rec loop () =
    if Tock_hw.Sim.now t.sim >= deadline then `Budget
    else begin
      let any_worked =
        List.fold_left (fun acc n -> drain_node n || acc) false t.nodes
      in
      if any_worked then loop ()
      else
        let d = Tock_hw.Sim.next_deadline t.sim in
        if d = max_int then `Stalled
        else if d >= deadline then `Asleep d
        else begin
          sleep_all_to t d;
          loop ()
        end
    end
  in
  loop ()

let run_all t ~max_cycles =
  let deadline = Tock_hw.Sim.now t.sim + max_cycles in
  let rec go () =
    match run_to_deadline t ~deadline with
    | `Budget | `Stalled -> ()
    | `Asleep d ->
        (* Legacy semantics: overshoot to the wake event and keep going
           (callers bound a scenario, not a cycle-exact budget). *)
        sleep_all_to t d;
        go ()
  in
  go ()

let total_energy_uj t = Tock_hw.Sim.total_microjoules t.sim
