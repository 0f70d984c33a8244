(** Parallel iterative context bounding across OCaml domains — the
    ICB-shaped entry point over the generic executor.

    The executor itself lives in {!Driver} and {!Rounds}, generalized
    over {!Strategy.S}; this wrapper instantiates the ICB strategy and
    delegates, keeping the historical [Icb.run_parallel] signature.  Each
    context bound's work queue — replayable schedule prefixes, the same
    representation checkpoints use — is sharded over a pool of worker
    domains with work-stealing deques, merging per-worker statistics and
    bugs at a per-bound barrier.  The ICB invariant is preserved: bound
    [c] is fully drained before any bound [c+1] item runs, so the first
    bug found under [stop_at_first_bug] still carries a minimal preemption
    count.  (Other strategies shard the same way through
    [Explore.run ?domains].)

    {2 Determinism}

    The merge is independent of worker timing: statistics fold with
    commutative operations, bug candidates are absorbed in sorted
    (preemptions, schedule, key) order with their [execution] stamps
    forged to the bound's cumulative count, and the next frontier is
    sorted by (schedule, tid).  A parallel run reports the same bug set,
    per-bound cumulative execution counts ({!Sresult.t.bound_executions}),
    distinct states and total steps as [Explore.run] with the serial
    {!Explore.Icb} strategy — with two caveats: the growth curve has one
    point per bound instead of one per execution, and with [cache = true]
    the cache prunes per worker, so a parallel cached run may explore more
    executions than a serial one (equivalence holds for [cache = false]).

    {2 Limits and checkpoints}

    Limits, the deadline and [stop_at_first_bug] are enforced at work-item
    granularity: workers finish their in-flight item before stopping, so
    final counts can overshoot a limit slightly, and a checkpoint written
    on stop (or periodically, mid-bound, via a worker pause protocol)
    contains exactly the unprocessed items — resuming re-explores no
    schedule.  Checkpoints are cross-resumable: a parallel checkpoint
    resumes serially and vice versa (per-worker caches are not stored; a
    cached resume merely re-explores a little).  Unlike the serial driver,
    a checkpointed prefix that no longer replays is contained as a
    replayable bug on the worker that hit it, not raised as
    [Invalid_argument].

    [options.on_progress] is called with aggregated counts from whichever
    worker finished an execution (serialized by an internal lock, but
    concurrent with other workers' searching); [p_states] between barriers
    is an over-approximation summing per-worker counts. *)

val run :
  (int -> (module Engine.S with type state = 's)) ->
  ?options:Collector.options ->
  ?checkpoint_out:string ->
  ?checkpoint_every:int ->
  ?checkpoint_meta:(string * string) list ->
  ?resume_from:Checkpoint.t ->
  ?telemetry:Icb_obs.Telemetry.t ->
  ?share_states:bool ->
  ?replay_cache:bool ->
  ?on_cache_stats:(Replay_cache.stats -> unit) ->
  domains:int ->
  max_bound:int option ->
  cache:bool ->
  unit ->
  Sresult.t
(** [run engines ~domains ~max_bound ~cache ()] explores with [domains]
    worker domains; worker [i] uses the engine [engines i], so every
    worker gets its own instance (the factory is called once per index,
    sequentially, before any domain is spawned).  For an engine module
    with no module-level mutable state the factory may return the same
    module every time.

    [share_states] (default [false]) lets a deferred work item carry its
    live engine state across the barrier into another worker, skipping the
    prefix replay.  Enable it only when states are plain data that any
    instance can step (the machine engine); engines whose states own
    single-domain resources — the CHESS engine's states hold a live
    run — must leave it off and pay the replay.  Engines advertising the
    {!Engine.S.snapshot} capability get this automatically whenever
    [replay_cache] is on.

    [replay_cache] (default [true]) enables the prefix-snapshot replay
    cache (docs/REPLAY_CACHE.md) for snapshot-capable engines: states
    ride along on work items and each worker keeps a bounded LRU of
    prefix snapshots, so materializing an item costs only the steps past
    its longest cached ancestor.  [~replay_cache:false] restores the pure
    stateless discipline (every prefix replays from the initial state,
    overriding [share_states]); the explored executions, bug set and
    checkpoints are identical either way.  [on_cache_stats] receives the
    run's replay accounting (summed over workers) in both modes.

    Raises [Invalid_argument] if [domains < 1] or [resume_from] holds a
    checkpoint written by a non-ICB strategy (resume those through
    [Explore.resume], which re-derives the strategy from the file). *)
