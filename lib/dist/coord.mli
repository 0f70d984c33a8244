(** The distributed coordinator: one TCP port serving both the work
    protocol ({!Proto}) and plain HTTP ([GET /metrics] Prometheus text,
    [GET /status] JSON), distinguished by sniffing the first eight bytes
    of each connection.

    The coordinator is the lease transport of the round core
    ({!Icb_search.Rounds}), which owns the strategy instance, the master
    collector and the barrier merge; the in-process domains are its
    other transport.  Each round the coordinator cuts the sorted
    frontier into contiguous batches (so a worker's consecutive batches
    share schedule prefixes and hit its replay cache) and leases them
    out; the core merges the reports back {i in batch-id order}, making
    the bug set, per-bound execution counts and telemetry stream of a
    distributed run identical to a serial run of the same search.

    Failure model: a lease is voided when its connection drops or its
    {!create} [lease_timeout] passes, and the batch returns to the
    pending queue for re-issue — a killed worker loses nothing.  A report
    whose lease was voided is answered [Stale] and discarded, so every
    batch is absorbed at most once.  With [checkpoint_out] set, the
    coordinator itself is kill/resumable: periodic saves go through the
    same checkpoint machinery as the serial driver (absorbed batches in
    the collector, unabsorbed ones in the work list). *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?lease_timeout:float ->
  ?batch_size:int ->
  ?telemetry:Icb_obs.Telemetry.t ->
  unit ->
  t
(** Bind and start accepting on [host] (default ["127.0.0.1"]; an IP or
    resolvable name) and [port] (default [0] = ephemeral — read it back
    with {!port}).  [lease_timeout] (default [30.] seconds) is how long a
    batch may stay leased before it is re-issued; [batch_size] (default
    [32]) the maximum work items per lease.  [telemetry] defaults to a
    private handle; either way it gains the [icb_dist_*] metrics (so one
    handle cannot serve two coordinators) and the standard event
    projection, all rendered by [GET /metrics]. *)

val port : t -> int
val telemetry : t -> Icb_obs.Telemetry.t

val run :
  t ->
  (module Icb_search.Engine.S with type state = 's) ->
  ?options:Icb_search.Collector.options ->
  ?checkpoint_out:string ->
  ?checkpoint_every:int ->
  ?checkpoint_meta:(string * string) list ->
  ?resume_from:Icb_search.Checkpoint.t ->
  ?env:Icb_search.Strategy.env ->
  ?cache:bool ->
  Icb_search.Explore.strategy ->
  Icb_search.Sresult.t
(** Serve the search to completion (or until a limit in [options] stops
    it) and return the same result a serial {!Icb_search.Explore.run}
    would.  Blocks the calling thread; connection handling runs on
    background threads.  The coordinator's own engine only roots the
    search and fingerprints the program — [checkpoint_meta] travels to
    workers as the job's provenance so they can rebuild the engine
    ([kind]/[target], as in checkpoints).  [cache] (default [true])
    gates the workers' replay caches.  Limits are checked by the round
    core, as for domains, but at batch granularity: everything absorbed
    before the stop is merged.  Raises [Invalid_argument] for a strategy
    that is not shardable and checkpointable, or if [t] already ran. *)

val shutdown : t -> unit
(** Stop accepting, wake the acceptor and release the port.  Idempotent.
    Does not interrupt a concurrent {!run} mid-round — stop that with
    [options] limits. *)
