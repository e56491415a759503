(** A small reliable link layer over the packet radio — the class of
    "network and wireless protocols" the paper wishes it could reuse from
    third parties but cannot audit (§3.5), so Tock-style systems write
    their own.

    Frame format (the frame on the air is a scatter-gather iovec: staged
    header and trailer windows around the caller's payload window, which
    is never copied — the radio's DMA gather serializes them):

    {v  'T' 'K' | seq u8 | flags u8 | src u16le | dst u16le | len u8 | payload | crc16le  v}

    Features:
    - CRC-16/CCITT over header+payload; corrupt frames drop (counted);
    - unicast frames are acknowledged; unacked frames retransmit (up to
      3 times) on a virtual-alarm timer, recovering from the
      medium's losses and collisions; a frame that is never acked resolves
      NOACK — reliability is bounded, not absolute;
    - duplicate suppression per (src, seq) sliding window;
    - fragmentation for unicast datagrams larger than one frame (up to 8
      acked fragments, reassembled per (src, datagram id));
    - non-'TK' frames pass through to a raw receive client, so the plain
      radio syscall driver can coexist on the same radio.

    The syscall driver (0x30002) mirrors the radio driver's protocol but
    with delivery guarantees: allow-ro 0 + command 1 (dest, len) = send
    reliably, upcall sub 0 = [(status, retries_used, 0)], status 0 = acked,
    negative = gave up; allow-rw 0 + command 2 = receive datagrams (upcall
    sub 1 = [(src, len, 0)]). *)

type t

val create :
  Tock.Kernel.t ->
  Tock.Hil.radio ->
  Alarm_mux.t ->
  ack_timeout_ticks:int ->
  t
(** A unicast takes at most 4 transmissions: the first and 3
    retransmissions. *)

val driver : t -> Tock.Driver.t

(** {2 Kernel-side API (used by tests and other capsules)} *)

val send :
  t -> dest:int -> bytes -> on_result:((unit, Tock.Error.t) result -> unit) ->
  (unit, Tock.Error.t) result
(** Reliable unicast (or fire-and-forget broadcast to 0xFFFF). BUSY if a
    send is in flight. Zero-copy: the bytes ride in the transmit iovec
    (and its retransmissions, and its fragments) in place, so they must
    not be mutated until [on_result]. *)

val set_receive : t -> (src:int -> bytes -> unit) -> unit

val set_raw_receive : t -> (src:int -> bytes -> unit) -> unit
(** Non-'TK' traffic. *)

val raw_radio : t -> Tock.Hil.radio
(** A pass-through radio view carrying non-'TK' traffic, so the plain
    radio syscall driver can sit beside the reliable layer on one radio. *)

val start : t -> unit
(** Power the radio into listening. *)

(** {2 Statistics} *)

val retransmissions : t -> int

val duplicates_dropped : t -> int

val crc_failures : t -> int

val acks_sent : t -> int

val datagrams_reassembled : t -> int

(** {2 Round-trip oracles (tests and benchmarks)} *)

val max_payload : int
(** Largest single-frame payload (100 bytes). *)

val frag_chunk : int
(** Payload bytes carried per fragment. *)

val max_fragments : int
(** Fragments per datagram, bounding [send] at
    [max_fragments * frag_chunk] bytes. *)

val round_trip :
  src:int -> dst:int -> Tock.Subslice.t -> Tock.Subslice.t -> int
(** Single-frame compose→wire→parse→deliver pipeline over the current
    zero-copy path: iovec compose with the incremental CRC, one hardware
    gather, in-place parse, one delivery blit into the out window.
    Returns the delivered length (0 = frame rejected). *)

(** The pre-zero-copy pipeline, byte for byte: copy out of the sender's
    buffer, build an owned frame, blit it through a staging buffer, parse
    with the byte-at-a-time table CRC, cut the body out, blit it into the
    receiver's buffer. Equivalence oracle and speedup baseline for
    {!round_trip}. *)
module Reference : sig
  val round_trip : src:int -> dst:int -> bytes -> bytes -> int
end
