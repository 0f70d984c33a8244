(** On-disk checkpoints: everything needed to stop an exploration and
    resume it in another process.

    The search frontier is stored as replayable schedule prefixes rather
    than marshaled engine states, so a checkpoint works for both the
    stateful machine engine and the continuation-based CHESS engine — the
    resuming strategy replays each prefix through [Engine.S.step].
    Checkpoints are therefore tied to the program being tested: resuming
    against a different (or nondeterministically changed) program is
    detected when a prefix fails to replay.

    Files carry a magic header, a format version and a payload digest;
    writes are atomic (temp file + rename), so a killed writer never
    leaves a corrupt file under the checkpoint's name, and any truncated
    or damaged file is rejected with {!Corrupt} rather than a crash or a
    silently wrong resume.

    The current format is v3: a strategy-agnostic frontier — a strategy
    tag, its parameters, a round counter and the work/deferred schedule
    prefixes ({!v3}).  v1 and v2 files (ICB and random-walk only) are
    still read and upgraded in memory ({!to_v3}); future versions are
    rejected, never guessed at. *)

type v3 = {
  v3_tag : string;
      (** strategy family: ["icb"], ["dfs"], ["db"], ["idfs"],
          ["random"], ["pct"], ["most-enabled"], ["vb"], ["tb"],
          ["icb-vb"] *)
  v3_params : (string * string) list;
      (** the strategy's parameters as strings (["max_bound"], ["cache"],
          ["seed"], ...), plus any round-local progress it must carry
          across a kill *)
  v3_round : int;
      (** strategy-interpreted: ICB's context bound, iterative DFS's
          current depth bound, a random walk's next walk index, ... *)
  v3_work : (int list * int) list;
      (** (schedule prefix, payload) — the current round's pending items.
          The payload is the thread to run from the replayed state, [-1]
          for "visit the replayed state itself", or a walk index for
          randomized strategies. *)
  v3_next : (int list * int) list;  (** deferred to the next round *)
}

type frontier =
  | Icb_frontier of {
      bound : int;
      work : (int list * int) list;
      next : (int list * int) list;
      max_bound : int option;
      cache : bool;
      cache_keys : (int64 * int) list;
    }
      (** legacy: only read back from v1/v2 files, upgraded by {!to_v3} *)
  | Random_frontier of { seed : int64; rng_state : int64 }  (** legacy *)
  | V3 of v3

type t = {
  strategy : string;                (** [Explore.strategy_name] at save time *)
  meta : (string * string) list;
      (** caller-owned provenance (the CLI stores how to rebuild the
          program: model name or source path, granularity, bound) *)
  collector : Collector.snapshot;
  frontier : frontier;
}

exception Corrupt of string
(** The file is not a checkpoint, is a future format version, is
    truncated, or fails its checksum.  The message says which and names
    the file. *)

val save : path:string -> t -> unit
(** Atomic write: marshal to a temp file in the same directory, then
    rename over [path].  Always writes the current format version.

    The payload is marshalled with [Marshal.No_sharing]: [t] must stay
    plain tree-shaped data (lists, strings, records, arrays of boxed
    integers).  [No_sharing] never terminates on a cyclic value and
    writes a shared value once per reference.  Raises [Sys_error] when
    the file cannot be written. *)

val load : string -> t
(** Raises {!Corrupt} on anything that is not a complete, intact
    checkpoint of a readable format version (1, 2 or 3).  v1/v2 payloads
    are upgraded in memory; the returned frontier may still be a legacy
    constructor — call {!to_v3} before interpreting it. *)

val to_v3 : t -> v3
(** The frontier in current form, upgrading the legacy constructors: an
    ICB frontier maps bound/work/next across directly (dropping the cache
    keys — a resumed cache starts cold and merely re-explores a little);
    a random-walk frontier drops the sequential RNG state and positions
    the per-walk stream at the collector's execution count. *)

val meta_find : t -> string -> string option

(** {2 Wall-clock timing}

    The driver stamps cumulative timing into [v3_params] at every save:
    [elapsed_key] maps to total exploration seconds summed across every
    interrupted run of the search, [bound_times_key] to a per-round
    breakdown.  Being string params they extend v3 compatibly (no
    format bump; older readers ignore them, older files report none) —
    and they are the only nondeterministic fields a checkpoint carries,
    so telemetry-neutrality comparisons normalize exactly these two
    keys away. *)

val elapsed_key : string
val bound_times_key : string

val elapsed : t -> float option
(** Cumulative exploration seconds across interruptions, when the
    writer recorded them. *)

val bound_times : t -> (int * float) list
(** Seconds spent per strategy round (ICB: per context bound). *)

val encode_bound_times : (int * float) list -> string
(** The ["round:secs,..."] param encoding ({!decode_bound_times} reads
    it back; seconds carry millisecond precision). *)

val decode_bound_times : string -> (int * float) list

val describe : t -> string
(** One human-readable line: strategy, round, frontier sizes, and
    cumulative exploration time when recorded. *)
