(** Vector-clock data-race detector (DJIT+/FastTrack style).

    Consumes the interpreter's event stream.  Synchronization accesses act
    as combined acquire-release on the variable (matching the paper's
    dependence relation, under which any two accesses to the same sync
    variable are ordered); data accesses are checked against the last write
    epoch and the read epochs since that write.

    The state is persistent: the search can branch an execution and carry
    the detector along each branch.  Per-thread clocks live in an array
    that [observe] copies at most once per call (on its first clock
    update) and never writes after returning it; the per-variable states
    are maps keyed by {!Icb_machine.Interp.compare_var_id}. *)

type t

val empty : t

val observe : t -> Icb_machine.Interp.event list -> (t, Report.race) result
(** Process the events of one step, in order.  Returns the first race
    found, if any; otherwise the advanced detector state. *)
