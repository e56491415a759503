(* The board-witness frame layout behind [Kernel.freeze] and
   [Kernel.thaw]; the interface lists the sections and what each
   holds. *)

module Frame = Tock_obs.Frame
module Metrics = Tock_obs.Metrics

let magic = "TCKSNP03"
let board = "board"
let procs = "procs"
let kernel_metrics = "kernel.metrics"
let sim_metrics = "sim.metrics"

(* Fixed order, so equal boards freeze to equal bytes. *)
let sections ~components =
  (board :: procs :: components) @ [ kernel_metrics; sim_metrics ]

let add_board b sim ~next_pid ~ram_next =
  let add_i = Frame.add_int in
  add_i b (Tock_hw.Sim.now sim);
  add_i b (Tock_hw.Sim.active_cycles sim);
  add_i b (Tock_hw.Sim.sleep_cycles sim);
  Frame.add_int64 b (Tock_hw.Sim.rng_state sim);
  (* Deadlines only: queue sequence numbers are allocation order and
     never match across a rebuild, but same-deadline events on this
     codebase commute (see the Alarm_mux ordering witness). *)
  let ev = Array.map fst (Tock_hw.Sim.event_times sim) in
  Array.sort compare ev;
  add_i b (Array.length ev);
  Array.iter (add_i b) ev;
  add_i b next_pid;
  add_i b ram_next

let add_registry b reg =
  let p = Metrics.packed_of reg in
  Buffer.add_string b (Metrics.layout_digest reg);
  Buffer.add_string b p.Metrics.p_blob

type witness_image = {
  w_now : int;
  w_active : int;
  w_sleep : int;
  w_rng : int64;
  w_events : int array;
  w_next_pid : int;
  w_ram_next : int;
  w_frame : Frame.t; (* the procs, freezer and registry sections, read at thaw *)
}

let decode ~components w =
  Result.bind (Frame.decode ~magic ~sections:(sections ~components) w) (fun f ->
      Frame.read f board (fun r ->
          let w_now = Frame.int r in
          let w_active = Frame.int r in
          let w_sleep = Frame.int r in
          let w_rng = Frame.int64 r in
          let w_events = Array.of_list (Frame.list r ~min:8 Frame.int) in
          let w_next_pid = Frame.int r in
          { w_now; w_active; w_sleep; w_rng; w_events; w_next_pid;
            w_ram_next = Frame.int r; w_frame = f }))

let restore_registry reg r =
  let digest = Frame.raw r 16 in
  match Metrics.restore reg ~digest (Frame.rest r) with
  | Ok () -> ()
  | Error e -> Frame.fail "%s" e
