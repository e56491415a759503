type usage = Used_full_slice | Yielded_early

type t = {
  sched_name : string;
  next : Process.t array -> int -> int;
  timeslice : Process.t -> int option;
  charge : Process.t -> usage -> unit;
}

(* Index of the first of [procs.(i .. n-1)] whose id is above [last],
   else 0: the rotation step, over processes in ascending id order. *)
let rec after procs n last i =
  if i >= n then 0
  else if Process.id procs.(i) > last then i
  else after procs n last (i + 1)

let round_robin ?(timeslice = 10_000) () =
  let last = ref (-1) and slice = Some timeslice in
  {
    sched_name = "round_robin";
    next =
      (fun procs n ->
        if n = 0 then -1
        else begin
          (* Next process with id greater than the last run, wrapping. *)
          let i = after procs n !last 0 in
          last := Process.id procs.(i);
          i
        end);
    timeslice = (fun _ -> slice);
    charge = (fun _ _ -> ());
  }

let rec index_of_id procs n id i =
  if i >= n then -1
  else if Process.id procs.(i) = id then i
  else index_of_id procs n id (i + 1)

let cooperative () =
  let last = ref (-1) in
  (* Sticky: the running process keeps the CPU until it blocks (the kernel
     chunks its slice, so Used_full_slice just means "still running").
     -1: none holds it. *)
  let current = ref (-1) in
  {
    sched_name = "cooperative";
    next =
      (fun procs n ->
        if n = 0 then -1
        else
          let i = index_of_id procs n !current 0 in
          if i >= 0 then i
          else begin
            let i = after procs n !last 0 in
            last := Process.id procs.(i);
            current := !last;
            i
          end);
    timeslice = (fun _ -> None);
    charge =
      (fun p usage ->
        match usage with
        | Used_full_slice -> ()
        | Yielded_early -> if !current = Process.id p then current := -1);
  }

let priority () =
  let slice = Some 10_000 in
  {
    sched_name = "priority";
    (* Ascending ids: the first runnable process has the lowest. *)
    next = (fun _ n -> if n = 0 then -1 else 0);
    timeslice = (fun _ -> slice);
    charge = (fun _ _ -> ());
  }

let mlfq ?(levels = 3) ?(base_slice = 5_000) ?(boost_every = 100) () =
  (* Level by process id; ids are dense, so an array grown on demand. *)
  let level = ref [||] in
  let decisions = ref 0 in
  let last = ref (-1) in
  let slices =
    Array.init (max 1 levels) (fun l -> Some (base_slice * (1 lsl l)))
  in
  let level_of p =
    let id = Process.id p in
    if id < Array.length !level then !level.(id) else 0
  in
  {
    sched_name = "mlfq";
    next =
      (fun procs n ->
        if n = 0 then -1
        else begin
          incr decisions;
          if !decisions mod boost_every = 0 then
            Array.fill !level 0 (Array.length !level) 0;
          let best = ref max_int in
          for i = 0 to n - 1 do
            let l = level_of procs.(i) in
            if l < !best then best := l
          done;
          (* Among the best level: the first id after the last run,
             else the first. *)
          let chosen = ref (-1) and first = ref (-1) in
          for i = n - 1 downto 0 do
            let p = procs.(i) in
            if level_of p = !best then begin
              first := i;
              if Process.id p > !last then chosen := i
            end
          done;
          let i = if !chosen >= 0 then !chosen else !first in
          last := Process.id procs.(i);
          i
        end);
    timeslice = (fun p -> slices.(level_of p));
    charge =
      (fun p usage ->
        match usage with
        | Used_full_slice ->
            let l = level_of p in
            if l < levels - 1 then begin
              let id = Process.id p in
              if id >= Array.length !level then begin
                let a = Array.make (max (id + 1) (2 * Array.length !level)) 0 in
                Array.blit !level 0 a 0 (Array.length !level);
                level := a
              end;
              !level.(id) <- l + 1
            end
        | Yielded_early -> ());
  }
