(** Testing real OCaml code, CHESS-style.

    This is the stateless counterpart of the guest machine: the test body
    is ordinary OCaml code written against the shim primitives below, run
    under an effects-based cooperative scheduler.  Scheduling points are
    introduced exactly at synchronization operations ({!Mutex}, {!Event},
    {!Semaphore}, {!Shared}, {!spawn}, {!yield}); plain {!Data} cells are
    not scheduling points but every access is fed to the race detector, so
    the reduction stays sound (paper, Section 3.1).

    Requirements on the test body: it must be deterministic (the schedule
    must be its only source of nondeterminism — no timing, no [Random], no
    I/O dependence) and must create all its shims inside the body, since
    the checker re-executes it from scratch to replay schedules.  Any
    exception escaping a thread is reported as a bug, so plain [assert]
    and [failwith] express correctness conditions.

    The shim primitives find the execution they belong to through a
    domain-local slot that {!Run.step} sets for the duration of the step,
    so explorations on different domains (e.g. [Explore.run ~domains:2])
    never see each other's runs.  Systhreads of one domain share that
    slot: two systhreads must not step executions of the same domain at
    the same time. *)

exception Chess_misuse of string
(** Raised when a primitive is used outside a running exploration, or on
    protocol violations the shims detect immediately (e.g. unlocking a
    mutex the calling thread does not hold). *)

val spawn : (unit -> unit) -> unit
(** Start a new thread.  The child is schedulable immediately; whether it
    runs before or after the parent's next operation is the scheduler's
    choice. *)

val yield : unit -> unit
(** Voluntarily offer the processor (a non-preempting scheduling point, as
    [Sleep(0)] in the paper's benchmarks). *)

val tid : unit -> int
(** The calling thread's identifier (main test body is 0). *)

module Mutex : sig
  type t

  val create : unit -> t

  val lock : t -> unit
  (** Blocks while held; not reentrant. *)

  val unlock : t -> unit
  (** Raises {!Chess_misuse} if not held by the caller. *)

  val with_lock : t -> (unit -> 'a) -> 'a
end

module Event : sig
  type t

  val create : ?manual:bool -> ?signaled:bool -> unit -> t
  (** Win32-style event; [manual = false] (the default) is auto-reset:
      one successful [wait] consumes the signal. *)

  val wait : t -> unit
  val set : t -> unit
  val reset : t -> unit
end

module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val release : t -> unit
end

module Shared : sig
  type 'a t
  (** A synchronization variable (volatile): every access is a scheduling
      point and accesses never race. *)

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val cas : 'a t -> expect:'a -> update:'a -> bool
  (** Structural comparison; atomic. *)

  val cas_phys : 'a t -> expect:'a -> update:'a -> bool
  (** Physical (pointer) comparison — what lock-free algorithms over
      linked nodes need. *)

  val fetch_add : int t -> int -> int
end

module Data : sig
  type 'a t
  (** A plain data variable: accesses execute atomically inside the
      enclosing step but are checked for data races. *)

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
end

(** {1 Internal: the execution machinery used by the engine} *)

module Run : sig
  type t

  val create : (unit -> unit) -> t
  (** A fresh execution of the test body, nothing run yet. *)

  val enabled_raw : t -> int list
  val enabled : t -> int list  (** yield-adjusted, like the machine's *)

  val is_enabled : t -> int -> bool
  (** [is_enabled r t] is [List.mem t (enabled r)], decided without
      building the list (and without allocating). *)

  val running : t -> bool
  (** [running r] is [status r = Running], decided without allocating. *)

  type status =
    | Running
    | Terminated
    | Deadlock of int list
    | Failed of string

  val status : t -> status

  val scan : t -> int list * status
  (** [(enabled r, status r)], from one walk over the threads. *)

  val step : t -> int -> Icb_machine.Interp.event list * bool
  (** Execute one scheduling step of the given enabled thread: its pending
      synchronization operation, then on through ordinary code and data
      accesses to its next scheduling point.  Returns the step's event log
      and whether the executed operation was potentially blocking. *)

  val thread_count : t -> int

  val yielded : t -> int -> bool
  (** Did the given thread's last executed operation yield?  (Such a step
      interferes with everyone's scheduling, which partial-order reduction
      must know.) *)
end
