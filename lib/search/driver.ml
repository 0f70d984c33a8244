(* The one generic search driver: [run] executes any {!Strategy.S} over
   any {!Engine.S}, serially ([domains = 1]) or across OCaml domains,
   with checkpoint/resume for every strategy whose frontier serializes.
   [Explore.run] and [Parallel.run] are thin wrappers over this module.
   Run set-up, checkpoint stamping and the per-item runner come from
   {!Rounds}.

   Serial mode processes the round's items through a queue honouring the
   strategy's discipline (FIFO, LIFO or best-first).  Limits fire as
   [Collector.Stop] from inside an expansion; the driver then checkpoints
   the remaining frontier, conservatively re-queuing the interrupted item
   (and rolling back the follow-up items it already deferred, so resume
   explores nothing twice) — except for strategies with atomic items
   interrupted exactly at their execution's end, whose resume is exact.

   Parallel mode runs the round core ({!Rounds.run}, see
   docs/PARALLEL.md) over the domain transport below.  A round's sorted
   items are cut into contiguous chunks, one per worker deque, so each
   worker's items share schedule prefixes; idle workers steal from random
   victims; current-round follow-ups ([c_push]) go to the front of the
   pushing worker's own deque, next-round items accumulate per worker and
   come back as that worker's report for the core's barrier merge.
   Stopping is cooperative and item-granular (workers carry no limits; a
   per-execution hook aggregates global counters and sets a stop flag),
   which keeps the no-duplicate resume guarantee.  Mid-round periodic
   checkpoints use the pause protocol: every live worker parks at its
   next item boundary and the last one to park hands the quiescent state
   to the core's checkpoint assembly. *)

(* A mutex-protected deque: the owner pushes and pops at the front (so a
   strategy's own follow-ups pop depth-first, keeping the frontier
   small), thieves steal from the back.  Contention is per-item and items
   are subtrees or whole walks, so a lock-free structure would buy
   nothing here. *)
module Dq = struct
  type 'a t = {
    m : Mutex.t;
    mutable front : 'a list;          (* head = next item for the owner *)
    mutable back : 'a list;           (* head = next item for a thief *)
  }

  let create () = { m = Mutex.create (); front = []; back = [] }

  let clear q =
    Rounds.with_lock q.m (fun () ->
        q.front <- [];
        q.back <- [])

  let push_back q x = Rounds.with_lock q.m (fun () -> q.back <- x :: q.back)
  let push_front q x = Rounds.with_lock q.m (fun () -> q.front <- x :: q.front)

  let pop q =
    Rounds.with_lock q.m (fun () ->
        match q.front with
        | x :: rest ->
          q.front <- rest;
          Some x
        | [] -> (
          match List.rev q.back with
          | [] -> None
          | x :: rest ->
            q.front <- rest;
            q.back <- [];
            Some x))

  let steal q =
    Rounds.with_lock q.m (fun () ->
        match q.back with
        | x :: rest ->
          q.back <- rest;
          Some x
        | [] -> (
          match List.rev q.front with
          | [] -> None
          | x :: rest ->
            q.front <- [];
            q.back <- rest;
            Some x))

  (* Non-destructive read, for checkpoint assembly while workers are
     parked. *)
  let snapshot q = Rounds.with_lock q.m (fun () -> q.front @ List.rev q.back)
end

(* The serial round queue: one in-process queue honouring the strategy's
   discipline. *)
type 'a squeue = {
  sq_push : 'a -> unit;
  sq_seed : 'a list -> unit;  (* round items, in order *)
  sq_pop : unit -> 'a option;
  sq_items : unit -> 'a list; (* non-destructive, in pop order *)
}

let fifo_queue () =
  let q = Queue.create () in
  {
    sq_push = (fun x -> Queue.add x q);
    sq_seed = List.iter (fun x -> Queue.add x q);
    sq_pop = (fun () -> Queue.take_opt q);
    sq_items = (fun () -> List.rev (Queue.fold (fun acc x -> x :: acc) [] q));
  }

let lifo_queue () =
  let stack = ref [] in
  {
    sq_push = (fun x -> stack := x :: !stack);
    sq_seed = (fun xs -> stack := xs @ !stack);
    sq_pop =
      (fun () ->
        match !stack with
        | [] -> None
        | x :: rest ->
          stack := rest;
          Some x);
    sq_items = (fun () -> !stack);
  }

(* Best-first as a bucket queue (ranks are small non-negative ints —
   enabled-thread counts); highest bucket first, FIFO within a bucket. *)
let rank_queue (type a) ~(rank : a -> int) =
  let buckets : (int, a Queue.t) Hashtbl.t = Hashtbl.create 8 in
  let max_bucket = ref 0 in
  let push x =
    let n = max 0 (rank x) in
    let q =
      match Hashtbl.find_opt buckets n with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add buckets n q;
        q
    in
    Queue.add x q;
    max_bucket := max !max_bucket n
  in
  let pop () =
    let rec from n =
      if n < 0 then None
      else
        match Hashtbl.find_opt buckets n with
        | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
        | Some _ | None -> from (n - 1)
    in
    from !max_bucket
  in
  let items () =
    let acc = ref [] in
    for n = !max_bucket downto 0 do
      match Hashtbl.find_opt buckets n with
      | None -> ()
      | Some q -> Queue.iter (fun x -> acc := x :: !acc) q
    done;
    List.rev !acc
  in
  { sq_push = push; sq_seed = List.iter push; sq_pop = pop; sq_items = items }

(* --- serial execution ---------------------------------------------------- *)

let run_serial (type s) (module E : Engine.S with type state = s)
    (module S : Strategy.S with type state = s) (sess : Rounds.session)
    ~(rp : s Search_core.replayer) ~retain =
  let master = sess.Rounds.master in
  let w = S.wstate () in
  let wstates = [| w |] in
  (* [--no-cache]: drop the snapshot slot at every hand-off, restoring the
     pure stateless discipline — every item pays the full prefix replay. *)
  let keep it = if retain then it else { it with Strategy.i_state = None } in
  (* Under the [`Rank] discipline an item's priority needs its state;
     materialize before insertion.  Strict replay: a prefix that no longer
     replays means the checkpoint belongs to a different (or
     nondeterministic) program — surface it, don't guess. *)
  let prep it =
    match S.discipline with
    | `Rank when it.Strategy.i_state = None ->
      let st = Rounds.materialize (module E) ~strict:true rp master it in
      { it with Strategy.i_state = st }
    | _ -> it
  in
  let sq =
    match S.discipline with
    | `Fifo -> fifo_queue ()
    | `Lifo -> lifo_queue ()
    | `Rank -> rank_queue ~rank:(fun it -> S.rank (module E) it)
  in
  let deferred = ref [] in
  let defer_len = ref 0 in
  let defer it =
    deferred := keep it :: !deferred;
    incr defer_len
  in
  let run_item =
    Rounds.item_runner (module E) ~strict:true ~expand:(S.expand (module E) w)
      ~rp ~col:master ~emit:sess.Rounds.emit
      ~push:(fun it -> sq.sq_push (prep (keep it)))
      ~defer ()
  in
  let save ?(extra = []) ?next () =
    Rounds.checkpoint sess master (fun () ->
        let next =
          match next with Some n -> n | None -> List.rev !deferred
        in
        S.to_prefixes ~wstates
          ~work:(Rounds.strip_items extra @ Rounds.strip_items (sq.sq_items ()))
          ~next:(Rounds.strip_items next))
  in
  let periodic () =
    if Rounds.checkpoint_due sess ~executions:(Collector.executions master)
    then save ()
  in
  let rec drain () =
    match sq.sq_pop () with
    | None -> ()
    | Some it ->
      let execs0 = Collector.executions master in
      let defers0 = !defer_len in
      (try run_item it
       with Collector.Stop ->
         (* An item that records exactly one execution, interrupted at
            that execution's end, is already done: resume repeats
            nothing.  Otherwise re-queue it — and roll back the items it
            already deferred, which its re-run will defer again. *)
         let exact =
           S.atomic_items && Collector.executions master > execs0
         in
         if not exact then begin
           let rec drop n l =
             if n <= 0 then l
             else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
           in
           deferred := drop (!defer_len - defers0) !deferred;
           defer_len := defers0
         end;
         save ~extra:(if exact then [] else [ it ]) ();
         raise Collector.Stop);
      periodic ();
      drain ()
  in
  let rec rounds items =
    Rounds.start_round sess ~round:(S.round ()) (List.length items);
    sq.sq_seed (List.map (fun it -> prep (keep it)) items);
    drain ();
    let d = List.rev !deferred in
    deferred := [];
    defer_len := 0;
    sess.Rounds.note_round_done (S.round ());
    match S.after_round master ~wstates ~deferred:d with
    | `Complete ->
      Collector.set_complete master;
      save ~next:[] ()
    | `Bounded ->
      (* the strategy's own horizon: save the deferred frontier so a
         later resume (e.g. with a higher bound) can pick it up *)
      save ~next:d ()
    | `Round items' -> rounds items'
  in
  match sess.Rounds.resume with
  | Some f ->
    let work, carry = S.of_prefixes master f in
    List.iter (fun p -> defer (Rounds.of_prefix p)) carry;
    (* Even an empty frontier goes through the round loop: a kill can
       land exactly at a round boundary, where work and deferred are
       both drained but the strategy still owes rounds (iterative
       deepening with truncations pending, a sealed bound owing its
       `Bounded verdict).  [after_round] re-derives the verdict from
       the restored params, so a genuinely finished checkpoint still
       concludes immediately.

       The batched-replay round: restored items carry no states, so sort
       them — lexicographic order groups the frontier by longest common
       prefix, and consecutive materializations hit the snapshot cache.
       The round's result is a multiset, insensitive to this order. *)
    rounds (Rounds.sorted_items (List.map Rounds.of_prefix work))
  | None ->
    let items = S.roots (module E) w master in
    if items = [] then
      (* a trivial program: [roots] recorded its only execution *)
      Collector.set_complete master
    else rounds items

(* --- the domain transport ------------------------------------------------- *)

(* Runs one round of {!Rounds.run} on [Array.length engs] domains, one
   report per worker.  Deques and steal streams persist across rounds;
   everything else is per round. *)
let domain_transport (type s)
    (engs : (module Engine.S with type state = s) array)
    ~(rps : s Search_core.replayer array) ~retain ~stripped ~tel =
  let domains = Array.length engs in
  let deques : s Strategy.item Dq.t array =
    Array.init domains (fun _ -> Dq.create ())
  in
  let rngs =
    let base = Icb_util.Rng.create 0x1CBD0E5L in
    Array.init domains (fun _ -> Icb_util.Rng.split base)
  in
  (* states stay attached to a worker's own items; they cross domains
     ([steal], the barrier) only when [retain] *)
  let strip it = if retain then it else { it with Strategy.i_state = None } in
  fun (rc : s Rounds.round) work ->
    Array.iter Dq.clear deques;
    let work = if retain then work else List.map strip work in
    (* Batched replay: the round is sorted, i.e. grouped by longest common
       prefix.  Shard it in contiguous chunks so each worker's run of
       items shares prefixes and consecutive materializations hit its
       snapshot cache; the barrier merge is independent of the
       assignment, and the assignment itself stays deterministic. *)
    let size = max 1 ((List.length work + domains - 1) / domains) in
    Array.iteri
      (fun i chunk -> List.iter (Dq.push_back deques.(i)) chunk)
      (Rounds.slices ~size work);
    let stop : Sresult.stop_reason option Atomic.t = Atomic.make None in
    let failed : exn option Atomic.t = Atomic.make None in
    let request_stop r = ignore (Atomic.compare_and_set stop None (Some r)) in
    (* Round-local global counters for limit enforcement and user
       progress; states and steps are sums of per-worker increments, so
       the state count over-approximates the distinct total (duplicates
       across workers) — the exact union is computed at the barrier. *)
    let g_execs = Atomic.make 0
    and g_states = Atomic.make 0
    and g_steps = Atomic.make 0
    and g_bugs = Atomic.make 0 in
    (* Workers whose deque drained spin while a peer still expands an
       item: the peer may push more current-round work their way. *)
    let busy = Atomic.make 0 in
    (* Pause/checkpoint protocol state; [parked] and [running] are guarded
       by [pm]. *)
    let pause = Atomic.make false in
    let pm = Mutex.create () in
    let pc = Condition.create () in
    let parked = ref 0 in
    let running = ref domains in
    let emits =
      Array.init domains (fun i ->
          match tel with
          | None -> (Icb_obs.Emit.null, fun () -> ())
          | Some t -> Icb_obs.Telemetry.buffered t ~worker:i)
    in
    let nexts = Array.init domains (fun _ -> ref []) in
    (* The per-execution hook installed in every worker's collector: bump
       the global counters, enforce the caller's limits by setting the
       stop flag, and relay aggregated progress. *)
    let hook cell =
      let prev_states = ref 0 and prev_steps = ref 0 and prev_bugs = ref 0 in
      fun (p : Collector.progress) ->
        let lcol = Option.get !cell in
        let executions = 1 + Atomic.fetch_and_add g_execs 1 in
        let ds = p.Collector.p_states - !prev_states in
        prev_states := p.Collector.p_states;
        let states = ds + Atomic.fetch_and_add g_states ds in
        let steps_now = Collector.total_steps lcol in
        let dst = steps_now - !prev_steps in
        prev_steps := steps_now;
        let steps = dst + Atomic.fetch_and_add g_steps dst in
        let db = p.Collector.p_bugs - !prev_bugs in
        prev_bugs := p.Collector.p_bugs;
        let bugs = db + Atomic.fetch_and_add g_bugs db in
        Option.iter request_stop (rc.check ~executions ~states ~steps ~bugs);
        rc.progress ~executions ~states ~bugs
    in
    let lcols =
      Array.init domains (fun i ->
          let cell = ref None in
          let c =
            Collector.create ~least_bugs:true
              {
                stripped with
                Collector.on_progress = Some (hook cell);
                events = fst emits.(i);
              }
          in
          cell := Some c;
          c)
    in
    let reports () =
      Array.init domains (fun i ->
          Some
            {
              Rounds.r_snap = Collector.snapshot lcols.(i);
              r_deferred = !(nexts.(i));
              r_params = None;
              r_flush = snd emits.(i);
            })
    in
    let remaining () =
      Array.fold_left (fun acc q -> acc @ Dq.snapshot q) [] deques
    in
    (* Run by the last worker to park (all other live workers are blocked
       on [pc], so their collectors, next-lists, deques and worker states
       are quiescent; the mutex hand-offs make their writes visible). *)
    let quorum () =
      if Atomic.get pause && !parked = !running then begin
        rc.save_mid (reports ()) (remaining ());
        Atomic.set pause false;
        Condition.broadcast pc
      end
    in
    let park () =
      Rounds.with_lock pm (fun () ->
          if Atomic.get pause then begin
            incr parked;
            quorum ();
            while Atomic.get pause do
              Condition.wait pc pm
            done;
            decr parked
          end)
    in
    (* A worker that runs out of work may be the one whose parking the
       others are waiting for; complete the quorum on the way out. *)
    let retire () =
      Rounds.with_lock pm (fun () ->
          decr running;
          quorum ())
    in
    let maybe_request_ckpt () =
      if rc.ckpt_due ~executions:(Atomic.get g_execs) then
        Rounds.with_lock pm (fun () ->
            (* only between pauses: [parked] must have drained *)
            if (not (Atomic.get pause)) && !parked = 0 then
              Atomic.set pause true)
    in
    let worker i () =
      let (module E : Engine.S with type state = s) = engs.(i) in
      let next = nexts.(i) in
      let run_item =
        Rounds.item_runner (module E) ~expand:(rc.expand i (module E))
          ~rp:rps.(i) ~col:lcols.(i) ~emit:(fst emits.(i))
          ~push:(fun it -> Dq.push_front deques.(i) it)
          ~defer:(fun it -> next := strip it :: !next)
          ()
      in
      let rng = rngs.(i) in
      let take () =
        match Dq.pop deques.(i) with
        | Some _ as r -> r
        | None ->
          let start = Icb_util.Rng.int rng domains in
          let rec go k =
            if k >= domains then None
            else
              let j = (start + k) mod domains in
              if j = i then go (k + 1)
              else
                match Dq.steal deques.(j) with
                | Some it -> Some (strip it)
                | None -> go (k + 1)
          in
          go 0
      in
      let rec loop () =
        if Atomic.get stop <> None || Atomic.get failed <> None then ()
        else begin
          if Atomic.get pause then park ();
          match take () with
          | Some it ->
            Atomic.incr busy;
            (match run_item it with
            | () -> Atomic.decr busy
            | exception e ->
              Atomic.decr busy;
              raise e);
            maybe_request_ckpt ();
            loop ()
          | None ->
            if Atomic.get busy > 0 then begin
              (* a peer is mid-item and may push work this way *)
              Domain.cpu_relax ();
              loop ()
            end
        end
      in
      (try loop ()
       with exn -> ignore (Atomic.compare_and_set failed None (Some exn)));
      retire ()
    in
    let doms = Array.init domains (fun i -> Domain.spawn (worker i)) in
    Array.iter Domain.join doms;
    (match Atomic.get failed with Some exn -> raise exn | None -> ());
    {
      Rounds.reports = reports ();
      unfinished = remaining ();
      stop = Atomic.get stop;
    }

(* --- entry --------------------------------------------------------------- *)

let default_checkpoint_every = Search_core.default_checkpoint_every

let run (type s) (engines : int -> (module Engine.S with type state = s))
    ?(options = Collector.default_options) ?checkpoint_out
    ?(checkpoint_every = default_checkpoint_every) ?(checkpoint_meta = [])
    ?resume_from ?telemetry ?(share_states = false) ?(replay_cache = true)
    ?on_cache_stats ~domains
    (module S : Strategy.S with type state = s) : Sresult.t =
  if domains < 1 then invalid_arg "Driver.run: domains must be at least 1";
  if domains > 1 && not S.shardable then
    invalid_arg
      (Printf.sprintf
         "Driver.run: ~domains:%d — the %s frontier does not shard across \
          domains; strategies that do: icb, dfs, db:N, idfs:N, random, \
          pct:N, vb:N, tb:N, icb-vb:N"
         domains S.name);
  if (checkpoint_out <> None || resume_from <> None) && not S.checkpointable
  then
    invalid_arg
      (Printf.sprintf
         "Driver.run: strategy %s does not support checkpoint/resume \
          (supported: icb, dfs, db:N, idfs:N, random, pct:N, \
          most-enabled, vb:N, tb:N, icb-vb:N)"
         S.name);
  (* the telemetry handle owns event wiring; a caller-supplied
     [options.events] is only honoured when no handle is given *)
  let emit =
    match telemetry with
    | None -> Icb_obs.Emit.null
    | Some t -> Icb_obs.Telemetry.emitter t ~worker:0
  in
  (* Engine instances are created sequentially here, before any domain
     exists, and each is thereafter used by a single worker at a time. *)
  let engs = Array.init domains engines in
  let has_snap =
    let (module E0 : Engine.S with type state = s) = engs.(0) in
    Option.is_some E0.snapshot
  in
  (* Replay-cache policy.  Serial mode retains the snapshot slot on every
     hand-off exactly as before (for any engine — the stateless engine's
     states hand their live run forward); parallel mode additionally
     shares states across domains whenever the engine certifies them as
     restorable snapshots (or the caller opted in explicitly).
     [replay_cache = false] is the debugging escape hatch: drop every
     snapshot, disable the per-worker caches, replay everything. *)
  let retain =
    replay_cache && (domains = 1 || share_states || has_snap)
  in
  let rps =
    Array.map
      (fun e -> Search_core.replayer e ~cache:replay_cache ())
      engs
  in
  let fp =
    (* only needed when a checkpoint is read or written *)
    if checkpoint_out <> None || resume_from <> None then
      Rounds.fingerprint engs.(0)
    else ""
  in
  let sess =
    Rounds.start (module S) ~who:"Explore.resume" ~fp ~options ~emit
      ?checkpoint_out ~checkpoint_every ~checkpoint_meta ?resume_from
      ~domains ()
  in
  (try
     if domains = 1 then
       run_serial engs.(0) (module S) sess ~rp:rps.(0) ~retain
     else
       Rounds.run (module S) sess ~workers:domains ~root:engs.(0)
         (domain_transport engs ~rps ~retain ~tel:telemetry
            ~stripped:(Rounds.stripped sess.Rounds.options))
   with Collector.Stop -> ());
  let cstats = Replay_cache.zero () in
  Array.iter
    (fun rp -> Replay_cache.accum ~into:cstats rp.Search_core.rp_stats)
    rps;
  (match on_cache_stats with None -> () | Some f -> f cstats);
  if Icb_obs.Emit.enabled emit && replay_cache && has_snap then
    Icb_obs.Emit.emit emit
      (Icb_obs.Event.Cache_stats
         {
           hits = cstats.Replay_cache.hits;
           misses = cstats.Replay_cache.misses;
           steps_saved = cstats.Replay_cache.steps_saved;
           steps_replayed = cstats.Replay_cache.steps_replayed;
         });
  Rounds.finish sess
