open Tock

type vclient = { mutable client : Hil.flash_event -> unit }

type op =
  | Op_read of int
  | Op_write of int * Subslice.t
  | Op_program of int * int * Subslice.t array
  | Op_erase of int

type t = {
  hw : Hil.flash;
  mutable queue : (vclient * op) list;
  mutable inflight : vclient option;
}

let rec pump t =
  match (t.inflight, t.queue) with
  | None, (vc, op) :: rest -> (
      let started =
        match op with
        | Op_read page -> t.hw.Hil.flash_read ~page
        | Op_write (page, sub) ->
            Result.map_error (fun (e, _) -> e) (t.hw.Hil.flash_write ~page sub)
        | Op_program (page, off, iov) ->
            Result.map_error (fun (e, _) -> e)
              (t.hw.Hil.flash_program ~page ~off iov)
        | Op_erase page -> t.hw.Hil.flash_erase ~page
      in
      match started with
      | Ok () ->
          t.queue <- rest;
          t.inflight <- Some vc
      | Error Error.BUSY -> () (* retry on next completion *)
      | Error _ ->
          (* Surface the failure as a completion so the client makes
             progress. *)
          t.queue <- rest;
          (match op with
          | Op_write (_, s) -> vc.client (`Write_done s)
          | Op_program (_, _, iov) -> vc.client (`Program_done iov)
          | Op_read _ -> vc.client (`Read_done Bytes.empty)
          | Op_erase _ -> vc.client `Erase_done);
          pump t)
  | _ -> ()

let create hw =
  let t = { hw; queue = []; inflight = None } in
  hw.Hil.flash_set_client (fun ev ->
      match t.inflight with
      | Some vc ->
          t.inflight <- None;
          vc.client ev;
          pump t
      | None -> ());
  t

let new_client t =
  let vc = { client = (fun _ -> ()) } in
  {
    Hil.flash_pages = t.hw.Hil.flash_pages;
    flash_page_size = t.hw.Hil.flash_page_size;
    flash_read =
      (fun ~page ->
        t.queue <- t.queue @ [ (vc, Op_read page) ];
        pump t;
        Ok ());
    flash_write =
      (fun ~page sub ->
        t.queue <- t.queue @ [ (vc, Op_write (page, sub)) ];
        pump t;
        Ok ());
    flash_program =
      (fun ~page ~off iov ->
        t.queue <- t.queue @ [ (vc, Op_program (page, off, iov)) ];
        pump t;
        Ok ());
    flash_erase =
      (fun ~page ->
        t.queue <- t.queue @ [ (vc, Op_erase page) ];
        pump t;
        Ok ());
    flash_set_client = (fun fn -> vc.client <- fn);
    flash_read_sync = (fun ~page -> t.hw.Hil.flash_read_sync ~page);
  }

let queue_depth t = List.length t.queue
