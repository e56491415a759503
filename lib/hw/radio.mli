(** 802.15.4-style packet radio and the shared medium joining boards.

    Signpost-class deployments (paper §2) hang off low-power radios: the
    power model matters as much as the data path. A radio is [Off]
    (drawing nothing), [Listening], or mid-transmit; transmitting takes
    air time proportional to the frame length at 250 kbit/s. The
    {!Ether.t} medium delivers frames to every *listening* radio, drops
    frames with a configurable loss probability, and corrupts
    concurrently transmitted frames (collisions), counting both.

    Frames carry a source address and up to 127 bytes of payload. *)

module Ether : sig
  type t

  val create : Sim.t -> ?loss_prob:float -> unit -> t

  val delivered : t -> int

  val lost : t -> int

  val collisions : t -> int
end

type t

type state = Off | Listening | Transmitting

val create :
  Ether.t -> Irq.t -> irq_line:int -> addr:int -> t
(** Join the medium with a 16-bit address. Starts [Off]. *)

val addr : t -> int

val state : t -> state

val start_listening : t -> unit

val stop : t -> unit
(** Power the radio off (also aborts listening). *)

val transmit_segs :
  t -> dest:int -> (bytes * int * int) list -> (unit, Completion.refusal) result
(** Send one frame ([dest] = 0xFFFF broadcasts): each [(buf, off, len)]
    segment is serialized in order into the frame's air copy (the
    hardware's own DMA gather). [Invalid] on a malformed segment, [Size]
    if the total exceeds 127 bytes, [Busy] until the last frame's top
    half has run. An [Off] radio powers up for the frame and returns to
    [Off], a listening one resumes. One completion, via [set_transmit_client]. *)

val set_transmit_client : t -> (unit -> unit) -> unit

val set_receive_client : t -> (src:int -> bytes -> unit) -> unit
(** Frame delivery (interrupt context). Frames addressed elsewhere are
    filtered. *)
