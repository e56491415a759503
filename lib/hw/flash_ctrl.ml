type op_result = Read_done of bytes | Write_done | Program_done | Erase_done

type t = {
  op : op_result Completion.t;
  pages : int;
  page_size : int;
  mutable store : bytes array;
      (* [||] until the first write: a part nobody writes costs no
         backing array at all. Once allocated, untouched pages alias
         [erased], a shared all-0xFF sentinel (compared physically);
         pages materialize on first write and fall back to the sentinel
         on erase. Of the fleet's boards only the kv mix writes flash
         (a third of single boards; no radio or root-of-trust board
         does), and its four rounds never compact, so never erase:
         most boards allocate neither 1,024-page array (1,025 words
         each, straight in the major heap). *)
  erased : bytes;
  mutable wear : int array; (* [||] until the first erase *)
  read_cycles : int;
  write_cycles : int;
  erase_cycles : int;
  mutable dirty_writes : int;
}

(* The erased sentinel is immutable by construction — [page_mut] copies
   off it before any write — so one per page size serves every
   controller on every domain. Hoisting it fleet-wide removes a
   page-size allocation per board (100k boards would otherwise each
   carry a private copy). Guarded: boards are built concurrently. *)
let sentinel_mutex = Mutex.create ()

(* otock-lint: allow domain-safety every access goes through [erased_sentinel], whose body runs entirely under [Mutex.protect sentinel_mutex]; the stored bytes are immutable by the CoW contract above *)
let sentinels : (int, bytes) Hashtbl.t = Hashtbl.create 4

let erased_sentinel page_size =
  Mutex.protect sentinel_mutex (fun () ->
      match Hashtbl.find_opt sentinels page_size with
      | Some b -> b
      | None ->
          let b = Bytes.make page_size '\xff' in
          Hashtbl.replace sentinels page_size b;
          b)

let create sim irq ~irq_line ~pages ~page_size ~read_cycles ~write_cycles
    ~erase_cycles =
  {
    op = Completion.create sim irq ~line:irq_line ~name:"flash";
    pages;
    page_size;
    store = [||];
    erased = erased_sentinel page_size;
    wear = [||];
    read_cycles;
    write_cycles;
    erase_cycles;
    dirty_writes = 0;
  }

let pages t = t.pages

let page_size t = t.page_size

(* The page as stored: the sentinel until the store exists. *)
let page_of t page = if Array.length t.store = 0 then t.erased else t.store.(page)

(* Materialize a page for mutation (copy-on-write off the sentinel). *)
let page_mut t page =
  if Array.length t.store = 0 then t.store <- Array.make t.pages t.erased;
  let p = t.store.(page) in
  if p == t.erased then begin
    let fresh = Bytes.make t.page_size '\xff' in
    t.store.(page) <- fresh;
    fresh
  end
  else p

let check_page t page =
  if page < 0 || page >= t.pages then Error (Completion.Invalid "bad page")
  else Ok ()

let read_page_sync t ~page =
  match check_page t page with
  | Error r -> invalid_arg ("Flash_ctrl.read_page_sync: " ^ Completion.text r)
  | Ok () -> Bytes.copy (page_of t page)

(* NOR-program [data] into [page] from byte [off]: bits only clear, so
   a write that wanted a 1 where a 0 is stored loses data and counts as
   dirty. *)
let nor_program t ~page ~off data =
  let dst = page_mut t page in
  let lost = ref false in
  for i = 0 to Bytes.length data - 1 do
    let old = Char.code (Bytes.get dst (off + i)) in
    let wanted = Char.code (Bytes.get data i) in
    let stored = old land wanted in
    if stored <> wanted then lost := true;
    Bytes.set dst (off + i) (Char.chr stored)
  done;
  if !lost then t.dirty_writes <- t.dirty_writes + 1

let read_page t ~page =
  if Completion.busy t.op then Error (Completion.Busy "flash busy")
  else
    Result.bind (check_page t page) (fun () ->
        Completion.start t.op ~delay:t.read_cycles (fun () ->
            Read_done (Bytes.copy (page_of t page))))

let write_page t ~page segs =
  if Completion.busy t.op then Error (Completion.Busy "flash busy")
  else
    match Completion.gather segs with
    | Some latch when Bytes.length latch = t.page_size ->
        Result.bind (check_page t page) (fun () ->
            Completion.start t.op ~delay:t.write_cycles (fun () ->
                nor_program t ~page ~off:0 latch;
                Write_done))
    | Some _ | None -> Error (Completion.Invalid "bad page buffer size")

(* Scatter-gather partial-page program: the latched segments are
   NOR-programmed into [off, off+total) of the page, the rest of the
   page untouched. Program time scales with the programmed span, so a
   log append pays for the bytes it writes, not the whole page. *)
let program_region t ~page ~off segs =
  if Completion.busy t.op then Error (Completion.Busy "flash busy")
  else
    match Completion.gather segs with
    | None -> Error (Completion.Invalid "bad segment")
    | Some latch ->
        let total = Bytes.length latch in
        if off < 0 || off + total > t.page_size then
          Error (Completion.Invalid "bad program range")
        else
          Result.bind (check_page t page) (fun () ->
              let delay = max 1 (t.write_cycles * total / t.page_size) in
              Completion.start t.op ~delay (fun () ->
                  nor_program t ~page ~off latch;
                  Program_done))

let erase_page t ~page =
  if Completion.busy t.op then Error (Completion.Busy "flash busy")
  else
    Result.bind (check_page t page) (fun () ->
        Completion.start t.op ~delay:t.erase_cycles (fun () ->
            (* Erased pages rejoin the shared sentinel, reclaiming the
               backing store (and keeping long-lived boards compact). *)
            if Array.length t.store > 0 then t.store.(page) <- t.erased;
            if Array.length t.wear = 0 then t.wear <- Array.make t.pages 0;
            t.wear.(page) <- t.wear.(page) + 1;
            Erase_done))

let set_client t fn = Completion.set_client t.op fn

let busy t = Completion.busy t.op

let wear t ~page =
  if page < 0 || page >= t.pages then invalid_arg "Flash_ctrl.wear";
  if Array.length t.wear = 0 then 0 else t.wear.(page)

let dirty_writes t = t.dirty_writes

(* Freeze/thaw support: only pages materialized off the erased sentinel
   carry information — everything else is 0xFF by construction, so a
   board witness stores (page index, bytes) for dirty pages and nothing
   for the rest (erased-page elision), then the counters: dirty writes,
   and the erase count of each page erased at least once. *)
let iter_dirty_pages t f =
  Array.iteri (fun page p -> if p != t.erased then f ~page p) t.store

let iter_worn_pages t f =
  Array.iteri (fun page n -> if n > 0 then f ~page n) t.wear

let restore_page t ~page data =
  if page < 0 || page >= t.pages then invalid_arg "Flash_ctrl.restore_page";
  if Bytes.length data <> t.page_size then
    invalid_arg "Flash_ctrl.restore_page: size";
  Bytes.blit data 0 (page_mut t page) 0 t.page_size

let restore_counters t ~dirty_writes ~wear =
  if dirty_writes < 0 then invalid_arg "Flash_ctrl.restore_counters: dirty writes";
  List.iter
    (fun (page, n) ->
      if page < 0 || page >= t.pages || n <= 0 then
        invalid_arg "Flash_ctrl.restore_counters: wear")
    wear;
  t.dirty_writes <- dirty_writes;
  t.wear <- (if wear = [] then [||] else Array.make t.pages 0);
  List.iter (fun (page, n) -> t.wear.(page) <- n) wear
