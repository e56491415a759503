(* Shared helpers for the test suite. *)

let qcheck ?count name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?count ~name gen prop)

let hex = Tock_crypto.Sha256.hex

let make_board ?config ?(chip = `Sam4l) ?seed () =
  let sim = Tock_hw.Sim.create ?seed () in
  let chip =
    match chip with
    | `Sam4l -> Tock_hw.Chip.sam4l_like sim
    | `Rv32 -> Tock_hw.Chip.rv32_like sim
  in
  Tock_boards.Board.build ?config chip

let add_app_exn board ~name main =
  match Tock_boards.Board.add_app board ~name main with
  | Ok p -> p
  | Error e -> Alcotest.failf "add_app %s: %s" name (Tock.Error.to_string e)

let run_done ?max_cycles board =
  Tock_boards.Board.run_to_completion board ?max_cycles ()

(* A named packed-metrics image, as a frame section stores it. *)
let packed_image p =
  let b = Buffer.create 1024 in
  Tock_obs.Metrics.packed_to_buffer b p;
  Buffer.contents b

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains ~msg haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: %S not found in %S" msg needle haystack
