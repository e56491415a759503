type perms = { read : bool; write : bool; execute : bool }

let r_only = { read = true; write = false; execute = false }
let rw = { read = true; write = true; execute = false }
let rx = { read = true; write = false; execute = true }

type flavor = Cortex_m | Pmp

type region = { region_start : int; region_size : int; region_perms : perms }

(* The app memory region needs extra bookkeeping: which prefix of the
   block the app may touch. On Cortex-M this is a count of enabled
   subregions; on PMP it is an exact byte bound. *)
type app_region = {
  block_start : int;
  block_size : int;
  subregion_size : int; (* 0 for PMP (byte granularity) *)
  mutable accessible : int; (* bytes from block_start the app may touch *)
}

type config = {
  slots : region option array;
  mutable app : app_region option;
  (* Bumped on every mutation of the protection state (region allocation,
     app-break movement, reset). Callers that cache the result of a check
     validate against this counter, so stale protection state can never be
     honored — the §5.4 bug class this design must not reintroduce. *)
  mutable generation : int;
  (* Full-table lookups performed (diagnostics: lets tests prove that a
     cached-hit path really skipped the region scan). *)
  mutable scans : int;
}

type t = { mpu_flavor : flavor; num_regions : int }

let create ?(num_regions = 8) mpu_flavor = { mpu_flavor; num_regions }

let new_config t =
  { slots = Array.make t.num_regions None; app = None; generation = 0; scans = 0 }

let generation c = c.generation

let scan_count c = c.scans

let restore_scan_count c n = c.scans <- n

let restore_generation c n = c.generation <- n

let bump c = c.generation <- c.generation + 1

let reset_config _t c =
  Array.fill c.slots 0 (Array.length c.slots) None;
  c.app <- None;
  bump c

let free_slot c =
  let n = Array.length c.slots in
  let rec go i = if i >= n then None else if c.slots.(i) = None then Some i else go (i + 1) in
  go 0

let pow2_at_least n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 32

let align_up addr align = (addr + align - 1) land lnot (align - 1)

let allocate_region t c ~unallocated_start ~unallocated_size ~min_size perms =
  if min_size <= 0 then None
  else
    match free_slot c with
    | None -> None
    | Some slot -> (
        match t.mpu_flavor with
        | Pmp ->
            (* 4-byte granularity, exact size. *)
            let start = align_up unallocated_start 4 in
            let size = align_up min_size 4 in
            if start + size > unallocated_start + unallocated_size then None
            else begin
              let r = { region_start = start; region_size = size; region_perms = perms } in
              c.slots.(slot) <- Some r;
              bump c;
              Some r
            end
        | Cortex_m ->
            (* Power-of-two size, size-aligned start. *)
            let size = pow2_at_least min_size in
            let start = align_up unallocated_start size in
            if start + size > unallocated_start + unallocated_size then None
            else begin
              let r = { region_start = start; region_size = size; region_perms = perms } in
              c.slots.(slot) <- Some r;
              bump c;
              Some r
            end)

let allocate_app_memory_region t c ~unallocated_start ~unallocated_size
    ~min_memory_size ~initial_app_memory_size ~initial_kernel_memory_size =
  if c.app <> None then None
  else
    let needed =
      max min_memory_size (initial_app_memory_size + initial_kernel_memory_size)
    in
    match t.mpu_flavor with
    | Pmp ->
        let start = align_up unallocated_start 4 in
        let size = align_up needed 4 in
        if start + size > unallocated_start + unallocated_size then None
        else begin
          let app =
            {
              block_start = start;
              block_size = size;
              subregion_size = 0;
              accessible = initial_app_memory_size;
            }
          in
          c.app <- Some app;
          bump c;
          Some (start, size)
        end
    | Cortex_m ->
        (* Find a power-of-two block whose 1/8th subregions can cover the
           initial app memory while leaving the kernel suffix untouched. *)
        let rec fit size =
          let sub = size / 8 in
          let app_subs =
            (initial_app_memory_size + sub - 1) / sub
          in
          if (app_subs * sub) + initial_kernel_memory_size <= size then
            (size, sub, app_subs)
          else fit (size * 2)
        in
        let base_size = pow2_at_least (max needed 256) in
        let size, sub, app_subs = fit base_size in
        let start = align_up unallocated_start size in
        if start + size > unallocated_start + unallocated_size then None
        else begin
          let app =
            {
              block_start = start;
              block_size = size;
              subregion_size = sub;
              accessible = app_subs * sub;
            }
          in
          c.app <- Some app;
          bump c;
          Some (start, size)
        end

let update_app_memory_region t c ~app_break ~kernel_break =
  match c.app with
  | None -> Error "no app memory region allocated"
  | Some app ->
      if app_break < app.block_start || app_break > app.block_start + app.block_size
      then Error "app break outside memory block"
      else begin
        let wanted = app_break - app.block_start in
        let accessible =
          match t.mpu_flavor with
          | Pmp -> align_up wanted 4
          | Cortex_m ->
              let sub = app.subregion_size in
              let subs = (wanted + sub - 1) / sub in
              subs * sub
        in
        if app.block_start + accessible > kernel_break then
          Error "protection granularity would expose kernel memory"
        else begin
          app.accessible <- accessible;
          bump c;
          Ok ()
        end
      end

let region_allows r kind =
  match kind with
  | `Read -> r.region_perms.read
  | `Write -> r.region_perms.write
  | `Execute -> r.region_perms.execute

let check_with_range _t c ~addr ~len kind =
  if len = 0 then Some (addr, addr)
  else if len < 0 then None
  else begin
    c.scans <- c.scans + 1;
    (* [len] is compared with the room left above [addr]: [addr + len]
       could wrap past [max_int]. *)
    let n = Array.length c.slots in
    let rec slot i =
      if i >= n then None
      else
        match c.slots.(i) with
        | Some r
          when addr >= r.region_start
               && len <= r.region_start + r.region_size - addr
               && region_allows r kind ->
            Some (r.region_start, r.region_start + r.region_size)
        | _ -> slot (i + 1)
    in
    match slot 0 with
    | Some _ as s -> s
    | None -> (
        match c.app with
        | Some app
          when (kind = `Read || kind = `Write)
               && addr >= app.block_start
               && len <= app.block_start + app.accessible - addr ->
            Some (app.block_start, app.block_start + app.accessible)
        | _ -> None)
  end

let check t c ~addr ~len kind = check_with_range t c ~addr ~len kind <> None

let app_accessible_end c =
  Option.map (fun a -> a.block_start + a.accessible) c.app
