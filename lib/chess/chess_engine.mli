(** The stateless CHESS engine: an {!Icb_search.Engine.S} whose states are
    schedule prefixes of a real OCaml test body.

    Stepping a state that still owns a live execution advances it in
    place; stepping a state whose execution has moved on (because the
    search branched) transparently replays the prefix from the start —
    the Verisoft/CHESS architecture.  Coverage signatures are
    happens-before signatures; every execution is race-checked.

    Replays verify at every step that the test body takes the same
    synchronization path it took when the schedule was recorded; a
    divergence (a nondeterministic body — timing, [Random], I/O or state
    leaking across executions) raises
    {!Icb_search.Engine.Nondeterministic_program} with an actionable
    message, which the search strategies contain as a dedicated
    [nondeterministic-program] bug instead of aborting the run. *)

type state

module Make (_ : sig
  val test : unit -> unit
end) : Icb_search.Engine.S with type state = state

val engine :
  (unit -> unit) ->
  (module Icb_search.Engine.S with type state = state)
(** First-class engine for a test body, ready to pass to the search
    strategies (and to [Explore.run]'s checkpoint/resume machinery). *)

val check :
  ?options:Icb_search.Collector.options ->
  ?max_bound:int ->
  (unit -> unit) ->
  Icb_search.Sresult.bug option
(** One-call ICB checking of a test body, stopping at the first bug
    (default bound 3, like [Icb.check]). *)

val run :
  ?options:Icb_search.Collector.options ->
  ?env:Icb_search.Strategy.env ->
  strategy:Icb_search.Explore.strategy ->
  (unit -> unit) ->
  Icb_search.Sresult.t
(** When the strategy consumes a shared-variable ranking
    ([Explore.needs_env]) and no [env] is given, one is built with
    {!shared_env} — at the cost of one profiling execution of the body. *)

val shared_env : ?max_steps:int -> (unit -> unit) -> Icb_search.Strategy.env
(** Rank the test body's shared variables by access count along one
    profiling execution (the non-preemptive first-enabled schedule, ICB's
    round 0; [max_steps], default 4096, bounds it).  Deterministic bodies
    — a requirement of this engine anyway — make the ranking
    reproducible.  Variables only touched under other schedules are
    absent, i.e. never admitted by a variable bound built from this
    env. *)

val replays : unit -> int
(** Number of from-scratch replays performed since the program started,
    on every domain —
    exposed so tests and benchmarks can report the stateless exploration's
    replay overhead. *)
