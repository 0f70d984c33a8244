(** Happens-before execution signatures.

    The paper's Section 4.3 uses the happens-before relation of an
    execution as the representation of the state it reaches, for programs
    whose concrete states a stateless checker cannot capture.  Two
    executions that differ only in the order of independent steps have
    equal happens-before relations and therefore equal signatures here.

    The signature combines, commutatively across variables, a hash of the
    per-synchronization-variable access sequence (each entry being the
    accessing thread and that thread's operation index), together with each
    thread's operation count.  Within a variable the sequence order
    matters; across variables it must not — reordering independent steps
    permutes events of different variables but preserves each variable's
    sequence.

    The state is persistent: an access sequence is kept as its running
    hash in a map keyed by {!Icb_machine.Interp.compare_var_id}, the
    per-thread counts in an immutable [int array], and the signature
    itself as a running wrapping sum of one term per variable and one per
    thread.  [observe] updates that sum as it changes a term (subtracting
    the old term, adding the new one), so [signature] is O(1) and
    returns exactly the value a fold over every variable and thread
    would.  Checkpointed visited-signature sets and the pinned
    distinct-state counts depend on those values. *)

type t

val empty : t

val observe : t -> Icb_machine.Interp.event list -> t
(** Fold the events of one step into the signature state. *)

val signature : t -> int64
(** The current signature, in O(1). *)
