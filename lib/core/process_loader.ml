type lookup = string -> (Process.t -> Process.execution) option

type checker = {
  check_credentials :
    Tock_tbf.Tbf.t -> region:bytes -> verdict:((bool * string) -> unit) -> unit;
}

let accept_all_checker =
  { check_credentials = (fun _ ~region:_ ~verdict -> verdict (true, "accept-all")) }

type outcome =
  | Loaded of Process.t
  | Rejected of { app_name : string; reason : string }

type summary = {
  outcomes : outcome list;
  parse_error : Tock_tbf.Tbf.parse_error option;
  headers_parsed : int;
}

let header_parse_cost = 400 (* cycles to walk and checksum one header *)

(* The one per-image step of every path: charge the header walk, check
   the credentials over the stored integrity region, then create the
   process over the stored image. [k] gets the outcome once the
   checker's verdict is in. *)
let load_image kernel ~cap ~flash_base ~lookup ~checker
    (image : Tock_tbf.Tbf.image) k =
  let tbf = image.tbf in
  let name = Option.value (Tock_tbf.Tbf.package_name tbf) ~default:"(unnamed)" in
  let reject reason = k (Rejected { app_name = name; reason }) in
  Tock_hw.Sim.spend (Kernel.sim kernel) header_parse_cost;
  checker.check_credentials tbf
    ~region:(Bytes.sub image.stored 0 image.integrity_end)
    ~verdict:(fun (ok, why) ->
      if not ok then reject why
      else
        match lookup name with
        | None -> reject "no such app in registry"
        | Some factory -> (
            match
              Kernel.create_process kernel ~cap ~name
                ~flash_base:(flash_base + image.off) ~flash:image.stored
                ~min_ram:(Tock_tbf.Tbf.minimum_ram tbf)
                ?permissions:(Tock_tbf.Tbf.permissions tbf)
                ?storage:(Tock_tbf.Tbf.storage_permissions tbf)
                ~tbf_flags:tbf.Tock_tbf.Tbf.flags ~factory ()
            with
            | Ok proc -> k (Loaded proc)
            | Error e -> reject (Error.to_string e)))

(* The asynchronous loader is a state machine driven by checker verdicts:
   Parse -> Check(app0) -> Create(app0) -> Check(app1) -> ... -> Done.
   Verdicts arrive from interrupt context (crypto engine completions), so
   each transition happens as the kernel loop pumps events. *)
let load_async kernel ~cap ~flash_base ~flash ~lookup ~checker ~on_done =
  let images, parse_error = Tock_tbf.Tbf.parse_all flash in
  let headers_parsed = List.length images in
  let rec next acc = function
    | [] -> on_done { outcomes = List.rev acc; parse_error; headers_parsed }
    | image :: rest ->
        load_image kernel ~cap ~flash_base ~lookup ~checker image (fun o ->
            next (o :: acc) rest)
  in
  next [] images

(* The synchronous pass is the same walk with a checker that answers at
   once, so [on_done] has fired before [load_async] returns. *)
let load_sync kernel ~cap ~flash_base ~flash ~lookup =
  let summary = ref None in
  load_async kernel ~cap ~flash_base ~flash ~lookup ~checker:accept_all_checker
    ~on_done:(fun s -> summary := Some s);
  Option.get !summary

let install kernel ~cap:_ ~pm_cap ~flash_base ~tbf ~lookup ~checker ~on_done =
  match Tock_tbf.Tbf.parse tbf ~off:0 with
  | Error e -> on_done (Error (Format.asprintf "%a" Tock_tbf.Tbf.pp_error e))
  | Ok image ->
      load_image kernel ~cap:pm_cap ~flash_base ~lookup ~checker image (function
        | Loaded p -> on_done (Ok p)
        | Rejected { reason; _ } -> on_done (Error reason))
