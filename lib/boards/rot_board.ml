(* otock-lint: allow-file crypto-confinement the root-of-trust board is the trusted composition root that owns the device keypair; it drives Prng/Schnorr directly to mint signing credentials and seed the checker policy *)

type t = {
  board : Board.t;
  checker : Tock_capsules.Signature_checker.t;
  signing_rng : Tock_crypto.Prng.t;
  secret_key : Tock_crypto.Schnorr.secret_key;
  public_key : Tock_crypto.Schnorr.public_key;
}

let create ?(seed = 0x0071_5070L) ?(blocking_commands = false) ?policy () =
  (* No trace ring: nothing reads a root-of-trust board's trace. *)
  let sim = Tock_hw.Sim.create ~seed ~trace_capacity:0 () in
  let chip = Tock_hw.Chip.rv32_like sim in
  let config =
    { (Tock.Kernel.default_config ()) with Tock.Kernel.blocking_commands }
  in
  let board = Board.build ~config chip in
  let signing_rng = Tock_crypto.Prng.create ~seed:(Int64.add seed 17L) in
  let secret_key, public_key = Tock_crypto.Schnorr.keypair signing_rng in
  let policy =
    match policy with
    | Some p -> p
    | None ->
        `Require_signature
          [ Tock_crypto.Schnorr.public_key_to_bytes public_key ]
  in
  let checker =
    Tock_capsules.Signature_checker.create
      ~digest:board.Board.checker_digest ~pke:board.Board.checker_pke ~policy
  in
  { board; checker; signing_rng; secret_key; public_key }

let sign_app t ~name ?(min_ram = 4096) ?binary () =
  let binary =
    match binary with Some b -> b | None -> Bytes.of_string (name ^ "-code")
  in
  let tbf = Tock_tbf.Tbf.make ~min_ram ~name ~binary () in
  Tock_tbf.Tbf.add_schnorr tbf ~sk:t.secret_key ~rng:t.signing_rng

let tamper tbf =
  let binary = Bytes.copy tbf.Tock_tbf.Tbf.binary in
  if Bytes.length binary > 0 then begin
    let c = Char.code (Bytes.get binary 0) in
    Bytes.set binary 0 (Char.chr (c lxor 0x01))
  end;
  { tbf with Tock_tbf.Tbf.binary }

let load_signed t ~apps ~registry ~on_done =
  let flash =
    Bytes.concat Bytes.empty (List.map Tock_tbf.Tbf.serialize apps)
  in
  Tock.Process_loader.load_async t.board.Board.kernel
    ~cap:t.board.Board.pm_cap ~flash_base:Board.flash_app_base ~flash
    ~lookup:(Tock_userland.Apps.registry registry)
    ~checker:(Tock_capsules.Signature_checker.checker t.checker)
    ~on_done

let public_key_bytes t = Tock_crypto.Schnorr.public_key_to_bytes t.public_key

let enable_app_loader t ~registry =
  let board = t.board in
  let loader =
    Tock_capsules.App_loader.create board.Board.kernel
      ~cap:board.Board.ext_cap ~pm_cap:board.Board.pm_cap
      ~lookup:(Tock_userland.Apps.registry registry)
      ~checker:(Tock_capsules.Signature_checker.checker t.checker)
      ~flash_base:Board.flash_app_base
  in
  Tock.Kernel.register_driver board.Board.kernel
    (Tock_capsules.App_loader.driver loader);
  loader
