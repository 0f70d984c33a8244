(** Persistent vector clocks.

    A clock is an immutable [int array] indexed by thread id.  Components
    past the end of the array read as 0, so clocks over a growing thread
    population need no resizing, and [equal]/[compare] ignore trailing
    zeros.  Every operation returns a fresh array or one of its arguments
    and never mutates a clock it was given: [join] returns an argument
    itself when that argument already dominates the other, and [set]
    returns its argument when the component does not change. *)

type t

val empty : t

val get : t -> int -> int
(** [get c tid] is the component for [tid] (0 when absent, and for negative
    [tid]). *)

val inc : t -> int -> t
(** Increment one component. *)

val set : t -> int -> int -> t
(** [set c tid n] is [c] with component [tid] equal to [n]; [tid] must be
    non-negative. *)

val join : t -> t -> t
(** Pointwise maximum. *)

val leq : t -> t -> bool
(** Pointwise ordering: [leq a b] iff every component of [a] is [<=] the
    corresponding component of [b]. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** A total order extending structural equality (not the happens-before
    partial order); for use as a map key. *)

val pp : Format.formatter -> t -> unit
