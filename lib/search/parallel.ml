(* Parallel iterative context bounding across OCaml domains — kept as the
   ICB-shaped entry point.  The executor itself lives in [Driver] (the
   work-stealing domain transport: deques, cooperative stopping, the
   mid-round pause protocol) and [Rounds] (the deterministic barrier
   merge), generalized over [Strategy.S]; this wrapper instantiates the
   ICB strategy and delegates.  [engines 0] is additionally used as the strategy's type
   witness, so the factory is called once more than there are domains. *)

let run (type s) (engines : int -> (module Engine.S with type state = s))
    ?options ?checkpoint_out ?checkpoint_every ?checkpoint_meta ?resume_from
    ?telemetry ?share_states ?replay_cache ?on_cache_stats ~domains ~max_bound
    ~cache () : Sresult.t =
  let (module E0 : Engine.S with type state = s) = engines 0 in
  Driver.run engines ?options ?checkpoint_out ?checkpoint_every
    ?checkpoint_meta ?resume_from ?telemetry ?share_states ?replay_cache
    ?on_cache_stats ~domains
    (Strategies.icb (module E0) ~max_bound ~cache)
