open Tock

type pending = {
  dev : Hil.spi_device;
  buf : Subslice.t;
  client : Subslice.t -> unit;
}

type t = { mutable queue : pending list; mutable busy : bool }

let create () = { queue = []; busy = false }

let rec pump t =
  if not t.busy then
    match t.queue with
    | [] -> ()
    | p :: rest -> (
        t.queue <- rest;
        p.dev.Hil.spi_set_client (fun sub ->
            t.busy <- false;
            p.client sub;
            pump t);
        match p.dev.Hil.spi_transfer p.buf with
        | Ok () -> t.busy <- true
        | Error (_, sub) ->
            p.client sub;
            pump t)

let virtualize t dev =
  let client = ref (fun (_ : Subslice.t) -> ()) in
  {
    Hil.spi_transfer =
      (fun sub ->
        t.queue <- t.queue @ [ { dev; buf = sub; client = (fun s -> !client s) } ];
        pump t;
        Ok ());
    spi_set_client = (fun fn -> client := fn);
  }
