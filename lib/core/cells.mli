(** Interior-mutability cells, after Tock's [tock-cells] crate (paper §2.1).

    Tock's kernel is a web of components holding shared references to each
    other; state mutation happens through cells rather than unique
    references. OCaml has unrestricted mutation, so [Cell] itself is
    trivial — what matters here is {!Take_cell}, which reproduces the
    *reentrancy discipline*: a value is physically absent
    while a client operates on it, so a reentrant call observes [None]
    instead of corrupting state mid-operation. Tock relies on exactly this
    to make capsule callbacks safe to run from completion handlers; the
    test suite includes the classic reentrancy scenario. *)

module Cell : sig
  type 'a t

  val make : 'a -> 'a t

  val get : 'a t -> 'a

  val set : 'a t -> 'a -> unit

  val replace : 'a t -> 'a -> 'a
  (** Set and return the previous value. *)

  val update : 'a t -> ('a -> 'a) -> unit
end

module Optional_cell : sig
  type 'a t

  val empty : unit -> 'a t

  val is_some : 'a t -> bool

  val get : 'a t -> 'a option

  val set : 'a t -> 'a -> unit

  val take : 'a t -> 'a option
  (** Remove and return the value. *)

  val map : 'a t -> ('a -> 'b) -> 'b option
  (** Apply to the contained value without removing it. *)

  val get_or : 'a t -> 'a -> 'a
end

module Take_cell : sig
  type 'a t
  (** A cell whose value must be [take]n to be used — the canonical Tock
      pattern for owning a buffer or resource that split-phase operations
      borrow. *)

  val make : 'a -> 'a t

  val empty : unit -> 'a t

  val is_none : 'a t -> bool

  val take : 'a t -> 'a option
  (** Remove the value; the cell is empty until {!put} or {!replace}. *)

  val put : 'a t -> 'a -> unit
  (** Fill the cell. Raises [Invalid_argument] if it already holds a value
      — losing a buffer is a bug Tock's types prevent statically, so we
      fail loudly. *)

  val replace : 'a t -> 'a -> 'a option
  (** Fill and return the previous value, if any. *)

  val map : 'a t -> ('a -> 'b) -> 'b option
  (** [map t f] takes the value, applies [f], and restores it afterwards
      (even if [f] raises). A *reentrant* [map] on the same cell sees the
      cell empty and returns [None] — the mis-behaviour is contained, as
      in Tock. The number of such reentrant refusals is counted. *)

  val reentrancy_refusals : unit -> int
  (** Global count of [map]/[take] calls that found a cell empty because a
      caller higher in the stack had taken it. Only [map]-during-[map] is
      counted (a heuristic, but deterministic in this single-threaded
      simulation). *)
end
