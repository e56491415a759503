open Tock

let magic0 = 'T'

let magic1 = 'K'

let header_size = 9

let trailer_size = 2

let max_payload = 100


let flag_ack = 0x01

let flag_needs_ack = 0x02

let flag_fragment = 0x04

let frag_header = 4

let frag_chunk = max_payload - frag_header

let max_fragments = 8

(* Retransmissions of an unacked frame before it resolves NOACK. *)
let max_retries = 3

type inflight = {
  if_dest : int;
  if_seq : int;
  if_iov : Subslice.t array;
  mutable tries : int;
  if_done : (unit, Error.t) result -> unit;
}

(* In-place reassembly: one arena sized for the whole datagram, a
   received bitmap, and the last fragment's length (every other fragment
   is exactly [frag_chunk] bytes). Each fragment costs one blit from the
   received frame into its slot — no per-fragment allocation, no final
   concatenation pass. *)
type reasm = {
  arena : bytes;
  received : bool array;
  mutable last_len : int;
}

type t = {
  kernel : Kernel.t;
  radio : Hil.radio;
  valarm : Alarm_mux.valarm;
  ack_timeout : int;
  (* Scatter-gather staging: the data frame on the air is the iovec
     [hdr; (fhdr;) payload-window; trl] — only the few header/trailer
     bytes are written by the stack, the payload rides in place. Acks
     stage separately so an ack composed between retransmissions cannot
     corrupt the retransmitted frame. *)
  hdr : Subslice.t;
  fhdr : Subslice.t;
  trl : Subslice.t;
  ack_hdr : Subslice.t;
  ack_trl : Subslice.t;
  (* who owns the transmit currently in the air *)
  mutable current_tx : [ `None | `Net | `Ack | `Raw ];
  mutable raw_tx_iov_client : Subslice.t array -> unit;
  mutable next_seq : int;
  mutable inflight : inflight option;
  mutable rx_client : (src:int -> bytes -> unit) option;
  mutable raw_rx_client : src:int -> bytes -> unit;
  (* duplicate suppression: last seq seen per source *)
  last_seq : (int, int) Hashtbl.t;
  mutable retx : int;
  mutable dups : int;
  mutable crc_fail : int;
  mutable acks : int;
  (* userspace listeners *)
  mutable listeners : Process.id list;
  mutable tx_owner : Process.id option;
  mutable next_dgram_id : int;
  (* reassembly: (src, dgram_id) -> arena *)
  reassembly : (int * int, reasm) Hashtbl.t;
  mutable reassembled : int;
  c_tx_frames : Tock_obs.Metrics.counter;
  c_rx_frames : Tock_obs.Metrics.counter;
  c_retries : Tock_obs.Metrics.counter;
}

let fill_header w ~seq ~flags ~src ~dst ~plen =
  Subslice.set w 0 magic0;
  Subslice.set w 1 magic1;
  Subslice.set_u8 w 2 (seq land 0xff);
  Subslice.set_u8 w 3 (flags land 0xff);
  Subslice.set_u8 w 4 (src land 0xff);
  Subslice.set_u8 w 5 ((src lsr 8) land 0xff);
  Subslice.set_u8 w 6 (dst land 0xff);
  Subslice.set_u8 w 7 ((dst lsr 8) land 0xff);
  Subslice.set_u8 w 8 plen

(* Compose a frame as an iovec over the staging windows and the caller's
   payload window. The payload bytes are never touched: the checksum is
   folded over the windows in place and the radio's DMA gather serializes
   the segments into its air latch. *)
let compose ?fhdr ~hdr ~trl ~seq ~flags ~src ~dst payload_w =
  let plen =
    (match fhdr with Some f -> Subslice.length f | None -> 0)
    + Subslice.length payload_w
  in
  fill_header hdr ~seq ~flags ~src ~dst ~plen;
  let crc = Crc16.update_sub Crc16.init hdr in
  let crc = match fhdr with Some f -> Crc16.update_sub crc f | None -> crc in
  let crc = Crc16.update_sub crc payload_w in
  Subslice.set_u8 trl 0 (crc land 0xff);
  Subslice.set_u8 trl 1 ((crc lsr 8) land 0xff);
  match fhdr with
  | Some f -> [| hdr; f; payload_w; trl |]
  | None -> [| hdr; payload_w; trl |]

let transmit_iov t tag iov =
  if t.current_tx <> `None then Error Error.BUSY
  else
    (* the link destination is broadcast: filtering happens on our
       header, so acks and dedup see every frame *)
    match t.radio.Hil.radio_transmit_iov ~dest:0xFFFF iov with
    | Ok () ->
        t.current_tx <- tag;
        Tock_obs.Metrics.incr t.c_tx_frames;
        Ok ()
    | Error (e, _) -> Error e

let finish_inflight t result =
  match t.inflight with
  | None -> ()
  | Some inf ->
      t.inflight <- None;
      Alarm_mux.cancel t.valarm;
      inf.if_done result

let rec retransmit t =
  match t.inflight with
  | None -> ()
  | Some inf ->
      if inf.tries > max_retries then finish_inflight t (Error Error.NOACK)
      else begin
        t.retx <- t.retx + 1;
        Tock_obs.Metrics.incr t.c_retries;
        inf.tries <- inf.tries + 1;
        (* The staging windows still hold this frame: acks stage apart,
           and a new send is refused while we are inflight. *)
        (match transmit_iov t `Net inf.if_iov with
        | Ok () -> ()
        | Error _ -> () (* radio mid-frame; the timer fires us again *));
        arm_timer t
      end

and arm_timer t =
  Alarm_mux.set_client t.valarm (fun () -> retransmit t);
  Alarm_mux.set_relative t.valarm ~dt:t.ack_timeout

let send_single t ~dest ~extra_flags ?fhdr payload_w ~on_result =
  if t.inflight <> None then Error Error.BUSY
  else begin
    let seq = t.next_seq in
    t.next_seq <- (t.next_seq + 1) land 0xff;
    let needs_ack = dest <> 0xFFFF in
    let flags = (if needs_ack then flag_needs_ack else 0) lor extra_flags in
    let iov =
      compose ?fhdr ~hdr:t.hdr ~trl:t.trl ~seq ~flags
        ~src:t.radio.Hil.radio_addr ~dst:dest payload_w
    in
    match transmit_iov t `Net iov with
    | Error e -> Error e
    | Ok () ->
        if needs_ack then begin
          t.inflight <-
            Some { if_dest = dest; if_seq = seq; if_iov = iov; tries = 1;
                   if_done = on_result };
          arm_timer t
        end
        else on_result (Ok ());
        Ok ()
  end

let send_sub t ~dest payload ~on_result =
  let total_len = Subslice.length payload in
  if total_len <= max_payload then
    send_single t ~dest ~extra_flags:0 payload ~on_result
  else if dest = 0xFFFF then Error Error.SIZE
    (* large broadcasts have no ack to pace fragments; unsupported *)
  else
    let nfrags = (total_len + frag_chunk - 1) / frag_chunk in
    if nfrags > max_fragments then Error Error.SIZE
    else begin
      let dgram_id = t.next_dgram_id in
      t.next_dgram_id <- (t.next_dgram_id + 1) land 0xff;
      (* Each fragment is a fresh narrowing of the same underlying
         window: clone shares the bytes, so fragmentation allocates two
         words per fragment and copies nothing. *)
      let frag_window idx =
        let off = idx * frag_chunk in
        let n = min frag_chunk (total_len - off) in
        let pw = Subslice.clone payload in
        Subslice.slice pw ~pos:off ~len:n;
        pw
      in
      let fill_fhdr idx =
        Subslice.set_u8 t.fhdr 0 dgram_id;
        Subslice.set_u8 t.fhdr 1 idx;
        Subslice.set_u8 t.fhdr 2 nfrags;
        Subslice.set_u8 t.fhdr 3 0
      in
      (* Each fragment is acked before the next departs. *)
      let rec send_frag idx =
        fill_fhdr idx;
        send_single t ~dest ~extra_flags:flag_fragment ~fhdr:t.fhdr
          (frag_window idx)
          ~on_result:(fun result ->
            match result with
            | Error _ as e -> on_result e
            | Ok () ->
                if idx + 1 < nfrags then (
                  match send_frag (idx + 1) with
                  | Ok () -> ()
                  | Error e -> on_result (Error e))
                else on_result (Ok ()))
      in
      send_frag 0
    end

let send t ~dest payload ~on_result =
  send_sub t ~dest (Subslice.of_bytes payload) ~on_result

let send_ack t ~dest ~seq =
  t.acks <- t.acks + 1;
  fill_header t.ack_hdr ~seq ~flags:flag_ack ~src:t.radio.Hil.radio_addr
    ~dst:dest ~plen:0;
  let crc = Crc16.update_sub Crc16.init t.ack_hdr in
  Subslice.set_u8 t.ack_trl 0 (crc land 0xff);
  Subslice.set_u8 t.ack_trl 1 ((crc lsr 8) land 0xff);
  ignore (transmit_iov t `Ack [| t.ack_hdr; t.ack_trl |])

(* Parse a received frame in place: validation walks the delivered bytes
   and the payload is returned as a window over them — no [Bytes.sub]. *)
let handle_frame t ~src:_ frame =
  let len = Bytes.length frame in
  if len < 2 || Bytes.get frame 0 <> magic0 || Bytes.get frame 1 <> magic1 then
    (* not ours: raw passthrough *)
    `Raw
  else if len < header_size + trailer_size then begin
    t.crc_fail <- t.crc_fail + 1;
    `Dropped
  end
  else begin
    let plen = Char.code (Bytes.get frame 8) in
    if len < header_size + plen + trailer_size then begin
      t.crc_fail <- t.crc_fail + 1;
      `Dropped
    end
    else begin
      let crc_stored =
        Char.code (Bytes.get frame (header_size + plen))
        lor (Char.code (Bytes.get frame (header_size + plen + 1)) lsl 8)
      in
      if
        Crc16.update_fast Crc16.init frame ~off:0 ~len:(header_size + plen)
        <> crc_stored
      then begin
        t.crc_fail <- t.crc_fail + 1;
        `Dropped
      end
      else begin
        let seq = Char.code (Bytes.get frame 2) in
        let flags = Char.code (Bytes.get frame 3) in
        let fsrc =
          Char.code (Bytes.get frame 4) lor (Char.code (Bytes.get frame 5) lsl 8)
        in
        let fdst =
          Char.code (Bytes.get frame 6) lor (Char.code (Bytes.get frame 7) lsl 8)
        in
        let us = t.radio.Hil.radio_addr in
        if fdst <> us && fdst <> 0xFFFF then `Dropped
        else if flags land flag_ack <> 0 then begin
          (match t.inflight with
          | Some inf when inf.if_seq = seq && inf.if_dest = fsrc ->
              finish_inflight t (Ok ())
          | _ -> ());
          `Dropped
        end
        else begin
          if flags land flag_needs_ack <> 0 then send_ack t ~dest:fsrc ~seq;
          (* duplicate? (retransmits after a lost ack) *)
          match Hashtbl.find_opt t.last_seq fsrc with
          | Some s when s = seq ->
              t.dups <- t.dups + 1;
              `Dropped
          | _ ->
              Hashtbl.replace t.last_seq fsrc seq;
              let body =
                Subslice.of_bytes_window frame ~pos:header_size ~len:plen
              in
              if flags land flag_fragment <> 0 then `Fragment (fsrc, body)
              else `Datagram (fsrc, body)
        end
      end
    end
  end

(* ---- construction ---- *)

let allow_tx = 0

let allow_rx = 0

let sub_tx_done = 0

let sub_rx = 1

let driver_num = 0x30002

let deliver_to_listeners t ~src payload =
  List.iter
    (fun pid ->
      let copied =
        Kernel.with_allow_rw t.kernel pid ~driver:driver_num
          ~allow_num:allow_rx (fun buf ->
            let n = min (Subslice.length payload) (Subslice.length buf) in
            if n > 0 then
              Subslice.blit ~src:payload ~src_off:0 ~dst:buf ~dst_off:0 ~len:n;
            n)
      in
      let n = match copied with Ok n -> n | Error _ -> 0 in
      ignore
        (Kernel.schedule_upcall t.kernel pid ~driver:driver_num
           ~subscribe_num:sub_rx ~args:(src, n, 0)))
    t.listeners

(* Hand a complete datagram up: the single counted copy on the receive
   path is the blit into each listener's allow window. The kernel-side
   test client still gets owned bytes. *)
let deliver_up t ~src payload =
  (match t.rx_client with
  | Some fn -> fn ~src (Subslice.to_bytes payload)
  | None -> ());
  deliver_to_listeners t ~src payload

let create kernel radio amux ~ack_timeout_ticks =
  let reg = Kernel.metrics kernel in
  let t =
    {
      kernel;
      radio;
      valarm = Alarm_mux.new_alarm amux;
      ack_timeout = ack_timeout_ticks;
      hdr = Subslice.create header_size;
      fhdr = Subslice.create frag_header;
      trl = Subslice.create trailer_size;
      ack_hdr = Subslice.create header_size;
      ack_trl = Subslice.create trailer_size;
      current_tx = `None;
      raw_tx_iov_client = (fun (_ : Subslice.t array) -> ());
      next_seq = 1;
      inflight = None;
      rx_client = None;
      raw_rx_client = (fun ~src:_ _ -> ());
      last_seq = Hashtbl.create 8;
      retx = 0;
      dups = 0;
      crc_fail = 0;
      acks = 0;
      listeners = [];
      tx_owner = None;
      next_dgram_id = 1;
      reassembly = Hashtbl.create 8;
      reassembled = 0;
      c_tx_frames = Tock_obs.Metrics.counter reg "net.tx_frames";
      c_rx_frames = Tock_obs.Metrics.counter reg "net.rx_frames";
      c_retries = Tock_obs.Metrics.counter reg "net.retries";
    }
  in
  radio.Hil.radio_set_transmit_iov_client (fun iov ->
      match t.current_tx with
      | `Raw ->
          t.current_tx <- `None;
          t.raw_tx_iov_client iov
      | _ ->
          (* our own frame: the hardware latched the bytes at start, so
             the staging windows were already free — nothing to recycle *)
          t.current_tx <- `None);
  radio.Hil.radio_set_receive_client (fun ~src frame ->
      Tock_obs.Metrics.incr t.c_rx_frames;
      match handle_frame t ~src frame with
      | `Raw -> t.raw_rx_client ~src frame
      | `Dropped -> ()
      | `Datagram (fsrc, body) -> deliver_up t ~src:fsrc body
      | `Fragment (fsrc, body) ->
          if Subslice.length body >= frag_header then begin
            let dgram_id = Subslice.get_u8 body 0 in
            let idx = Subslice.get_u8 body 1 in
            let total = Subslice.get_u8 body 2 in
            let clen = Subslice.length body - frag_header in
            let len_ok =
              if idx = total - 1 then clen <= frag_chunk
              else clen = frag_chunk
            in
            if total >= 1 && total <= max_fragments && idx < total && len_ok
            then begin
              let key = (fsrc, dgram_id) in
              let r =
                match Hashtbl.find_opt t.reassembly key with
                | Some r when Array.length r.received = total -> r
                | _ ->
                    let r =
                      {
                        arena = Bytes.create (total * frag_chunk);
                        received = Array.make total false;
                        last_len = 0;
                      }
                    in
                    Hashtbl.replace t.reassembly key r;
                    r
              in
              Subslice.blit_to_bytes body ~src_off:frag_header ~dst:r.arena
                ~dst_off:(idx * frag_chunk) ~len:clen;
              r.received.(idx) <- true;
              if idx = total - 1 then r.last_len <- clen;
              if Array.for_all Fun.id r.received then begin
                Hashtbl.remove t.reassembly key;
                t.reassembled <- t.reassembled + 1;
                let total_len = ((total - 1) * frag_chunk) + r.last_len in
                let whole =
                  Subslice.of_bytes_window r.arena ~pos:0 ~len:total_len
                in
                deliver_up t ~src:fsrc whole
              end
            end
          end);
  t

let set_receive t fn = t.rx_client <- Some fn

let set_raw_receive t fn = t.raw_rx_client <- fn

(* A raw pass-through view: plain (non-'TK') frames share the radio with
   the reliable layer. Transmissions interleave at frame granularity. *)
let raw_radio t : Hil.radio =
  {
    Hil.radio_transmit_iov =
      (fun ~dest iov ->
        if t.current_tx <> `None then Error (Error.BUSY, iov)
        else
          match t.radio.Hil.radio_transmit_iov ~dest iov with
          | Ok () ->
              t.current_tx <- `Raw;
              Ok ()
          | Error _ as e -> e);
    radio_set_transmit_iov_client = (fun fn -> t.raw_tx_iov_client <- fn);
    radio_set_receive_client = (fun fn -> t.raw_rx_client <- (fun ~src b -> fn ~src b));
    radio_start_listening = (fun () -> t.radio.Hil.radio_start_listening ());
    radio_stop = (fun () -> t.radio.Hil.radio_stop ());
    radio_addr = t.radio.Hil.radio_addr;
  }

let start t = t.radio.Hil.radio_start_listening ()

let retransmissions t = t.retx

let duplicates_dropped t = t.dups

let crc_failures t = t.crc_fail

let acks_sent t = t.acks

let datagrams_reassembled t = t.reassembled

(* ---- syscall driver ---- *)

let command t proc ~command_num ~arg1 ~arg2 =
  let pid = Process.id proc in
  match command_num with
  | 0 -> Syscall.Success
  | 1 -> (
      if t.tx_owner <> None then Syscall.Failure Error.BUSY
      else
        match
          Kernel.allow_window t.kernel pid ~kind:`Ro ~driver:driver_num
            ~allow_num:allow_tx
        with
        | None -> Syscall.Failure Error.RESERVE
        | Some w ->
            let n = min arg2 (Subslice.length w) in
            if n = 0 then Syscall.Failure Error.RESERVE
            else begin
              Subslice.slice_to w n;
              match
                send_sub t ~dest:arg1 w ~on_result:(fun r ->
                    t.tx_owner <- None;
                    let status, retries =
                      match r with
                      | Ok () -> (0, 0)
                      | Error e -> (-Error.to_int e, max_retries)
                    in
                    ignore
                      (Kernel.schedule_upcall t.kernel pid ~driver:driver_num
                         ~subscribe_num:sub_tx_done ~args:(status, retries, 0)))
              with
              | Ok () ->
                  t.tx_owner <- Some pid;
                  Syscall.Success
              | Error e -> Syscall.Failure e
            end)
  | 2 ->
      start t;
      if not (List.mem pid t.listeners) then t.listeners <- pid :: t.listeners;
      Syscall.Success
  | 3 ->
      t.listeners <- List.filter (fun p -> p <> pid) t.listeners;
      Syscall.Success
  | 4 -> Syscall.Success_u32 t.radio.Hil.radio_addr
  | _ -> Syscall.Failure Error.NOSUPPORT

let driver t =
  Driver.make ~driver_num ~name:"net"
    (fun proc ~command_num ~arg1 ~arg2 -> command t proc ~command_num ~arg1 ~arg2)

(* ---- single-frame round-trip oracles (tests and benchmarks) ----

   Two self-contained compose→wire→parse→deliver pipelines over the same
   frame format. [Reference] reproduces the pre-zero-copy chain — copy
   out of the sender's window, build an owned frame, blit it into a
   127-byte staging buffer, parse, cut the body out, blit it into the
   receiver's buffer — with the byte-at-a-time table CRC it used.
   [round_trip] is the current path: iovec compose with the incremental
   CRC, one hardware gather, in-place parse, one delivery blit. The
   property tests assert the two produce identical bytes; the iopath
   benchmark measures the gap. *)

module Reference = struct
  let build_frame ~seq ~flags ~src ~dst payload =
    let plen = Bytes.length payload in
    let f = Bytes.create (header_size + plen + trailer_size) in
    Bytes.set f 0 magic0;
    Bytes.set f 1 magic1;
    Bytes.set f 2 (Char.chr (seq land 0xff));
    Bytes.set f 3 (Char.chr (flags land 0xff));
    Bytes.set f 4 (Char.chr (src land 0xff));
    Bytes.set f 5 (Char.chr ((src lsr 8) land 0xff));
    Bytes.set f 6 (Char.chr (dst land 0xff));
    Bytes.set f 7 (Char.chr ((dst lsr 8) land 0xff));
    Bytes.set f 8 (Char.chr plen);
    Bytes.blit payload 0 f header_size plen;
    let crc = Crc16.digest f ~off:0 ~len:(header_size + plen) in
    Bytes.set f (header_size + plen) (Char.chr (crc land 0xff));
    Bytes.set f (header_size + plen + 1) (Char.chr ((crc lsr 8) land 0xff));
    f

  let parse_frame frame =
    let len = Bytes.length frame in
    if len < header_size + trailer_size then None
    else if Bytes.get frame 0 <> magic0 || Bytes.get frame 1 <> magic1 then None
    else
      let plen = Char.code (Bytes.get frame 8) in
      if len < header_size + plen + trailer_size then None
      else
        let crc_stored =
          Char.code (Bytes.get frame (header_size + plen))
          lor (Char.code (Bytes.get frame (header_size + plen + 1)) lsl 8)
        in
        if Crc16.digest frame ~off:0 ~len:(header_size + plen) <> crc_stored then None
        else
          let src =
            Char.code (Bytes.get frame 4)
            lor (Char.code (Bytes.get frame 5) lsl 8)
          in
          (* otock-lint: allow capsule-byte-copy — the Reference module IS
             the copying baseline the iopath bench measures against *)
          Some (src, Bytes.sub frame header_size plen)

  let latch = Bytes.create 127

  let round_trip ~src ~dst payload out =
    (* the app's copy-out of its allowed buffer *)
    (* otock-lint: allow capsule-byte-copy — deliberate: this models the
       pre-zero-copy path for the benchmark comparison *)
    let owned = Bytes.sub payload 0 (Bytes.length payload) in
    let frame = build_frame ~seq:1 ~flags:0 ~src ~dst owned in
    let flen = Bytes.length frame in
    (* the staging blit the old transmit path performed *)
    Bytes.blit frame 0 latch 0 flen;
    (* otock-lint: allow capsule-byte-copy — deliberate: the copying
       receive path of the baseline under measurement *)
    match parse_frame (Bytes.sub latch 0 flen) with
    | None -> 0
    | Some (_, body) ->
        let n = min (Bytes.length body) (Bytes.length out) in
        Bytes.blit body 0 out 0 n;
        n
end

let rt_hdr = Subslice.create header_size

let rt_trl = Subslice.create trailer_size

let rt_latch = Bytes.create 127

let round_trip ~src ~dst payload_w out_w =
  let iov =
    compose ~hdr:rt_hdr ~trl:rt_trl ~seq:1 ~flags:0 ~src ~dst payload_w
  in
  (* the hardware's DMA gather into its air latch *)
  let flen =
    Array.fold_left
      (fun pos w ->
        let off, len = Subslice.window w in
        (* otock-lint: allow subslice-escape — this fold models the radio's
           DMA gather; the bytes go straight into the air latch *)
        Bytes.blit (Subslice.underlying w) off rt_latch pos len;
        pos + len)
      0 iov
  in
  (* in-place parse over the latch *)
  if flen < header_size + trailer_size then 0
  else
    let plen = Char.code (Bytes.get rt_latch 8) in
    if flen < header_size + plen + trailer_size then 0
    else
      let crc_stored =
        Char.code (Bytes.get rt_latch (header_size + plen))
        lor (Char.code (Bytes.get rt_latch (header_size + plen + 1)) lsl 8)
      in
      if
        Crc16.update_fast Crc16.init rt_latch ~off:0 ~len:(header_size + plen)
        <> crc_stored
      then 0
      else begin
        let body =
          Subslice.of_bytes_window rt_latch ~pos:header_size ~len:plen
        in
        let n = min plen (Subslice.length out_w) in
        if n > 0 then
          Subslice.blit ~src:body ~src_off:0 ~dst:out_w ~dst_off:0 ~len:n;
        n
      end
