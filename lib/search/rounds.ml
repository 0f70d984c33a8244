(* The one round core: Algorithm 1's outer loop — drain every work item of
   a round, merge, ask the strategy what comes next — for every executor
   that shards a round over workers.  It owns what is the same whether
   the workers are OCaml domains ([Driver]'s domain transport) or TCP
   worker processes ([Icb_dist.Coord]'s lease transport):

   - run set-up and teardown ({!start}, {!finish}): checkpoint tag and
     program-fingerprint checks, the master collector, cumulative
     wall-clock stamping, and the [Run_started]/[Run_finished] events;
   - checkpoints, as a capture and a write ({!checkpoint}, and the
     round's [capture] for mid-round ones);
   - the limit checks ({!check_limits}, one fixed order);
   - the sorted round;
   - the deterministic barrier merge ({!merge}, then per-report
     telemetry and [Worker_stats] in report order);
   - the strategy's [after_round] dispatch;
   - the per-item runner every worker shares ({!item_runner}).

   A transport turns one round's sorted work list into an array of
   reports — one per worker (domains) or per batch (TCP), in a fixed
   order — plus the items it never finished and the stop reason it
   observed.  Because the merge folds the reports in that order with
   commutative statistics and sorted bug absorption, the result is
   independent of worker count and timing.  Serial mode ([Driver]) shares
   the set-up, the runner and the checkpoint stamping but keeps its own
   queue loop: its queue disciplines and mid-item rollback differ. *)

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

(* --- items ---------------------------------------------------------------- *)

let of_prefix (sched, payload) =
  { Strategy.i_sched = sched; i_payload = payload; i_state = None }

let cmp_item a b =
  compare
    (a.Strategy.i_sched, a.Strategy.i_payload)
    (b.Strategy.i_sched, b.Strategy.i_payload)

(* Lexicographic on schedules, so a round is grouped by longest common
   prefix: contiguous chunks of it share prefixes and consecutive
   materializations hit the replay cache. *)
let sorted_items its = List.sort cmp_item its
let strip_items its = List.map Strategy.prefix_of its

(* Stripped items in round order, as a checkpoint stores them.  Sorted in
   an array: a list merge sort allocates a cell per element per pass. *)
let sorted_prefixes ps =
  let a = Array.of_list ps in
  Array.stable_sort compare a;
  Array.to_list a

(* Contiguous slices of at most [size] items, in order. *)
let slices ~size items =
  let a = Array.of_list items in
  let n = Array.length a in
  Array.init ((n + size - 1) / size) (fun k ->
      Array.to_list (Array.sub a (k * size) (min size (n - (k * size)))))

(* --- program fingerprint -------------------------------------------------- *)

(* A cheap program fingerprint stamped into every checkpoint (param
   "root_sig") and verified on resume: schedule prefixes alone cannot
   always betray a foreign program (an empty prefix replays anywhere), but
   the initial state's signature, thread count and enabled set can.
   Best-effort — v1/v2 checkpoints carry no fingerprint. *)
let fingerprint_key = "root_sig"

let fingerprint (type s) (module E : Engine.S with type state = s) =
  let s0 = E.initial () in
  Printf.sprintf "%Lx/%d/%s" (E.signature s0) (E.thread_count s0)
    (String.concat "," (List.map string_of_int (E.enabled s0)))

(* --- limits --------------------------------------------------------------- *)

(* Worker collectors carry no limits and never raise [Collector.Stop]:
   stopping is decided globally ({!check_limits}) and honoured at item or
   batch boundaries.  Semantic options (deadlock_is_error,
   terminal_states_only) are kept; telemetry is installed per worker. *)
let stripped options =
  {
    options with
    Collector.max_executions = None;
    max_states = None;
    max_total_steps = None;
    deadline = None;
    stop_at_first_bug = false;
    on_progress = None;
    events = Icb_obs.Emit.null;
  }

let deadline_passed (o : Collector.options) =
  match o.Collector.deadline with
  | Some d -> Unix.gettimeofday () >= d
  | None -> false

(* The caller's limits against run totals, in one fixed order, so the
   recorded stop reason is the same whichever transport observed the
   counts — the first limit tripped wins. *)
let check_limits (o : Collector.options) ~executions ~states ~steps ~bugs =
  let over limit n = match limit with Some l -> n >= l | None -> false in
  if over o.Collector.max_executions executions then
    Some Sresult.Execution_limit
  else if over o.Collector.max_states states then Some Sresult.State_limit
  else if over o.Collector.max_total_steps steps then Some Sresult.Step_limit
  else if deadline_passed o then Some Sresult.Deadline_exceeded
  else if o.Collector.stop_at_first_bug && bugs > 0 then Some Sresult.First_bug
  else None

(* --- the barrier merge ---------------------------------------------------- *)

(* Deterministic bug merge: sort candidates so the surviving
   representative of each key is independent of which worker found it
   first, and forge the discovery stamp to the cumulative execution count
   at the merge point. *)
let absorb_bugs col candidates =
  let candidates =
    List.sort
      (fun (a : Sresult.bug) (b : Sresult.bug) ->
        compare (a.preemptions, a.schedule, a.key)
          (b.preemptions, b.schedule, b.key))
      candidates
  in
  let stamp = Collector.executions col in
  List.iter
    (fun (b : Sresult.bug) ->
      if not (Collector.has_bug col b.Sresult.key) then
        Collector.absorb_bug col { b with Sresult.execution = stamp })
    candidates

(* What a worker (domain) or a batch (TCP) hands back for one round. *)
type 's report = {
  r_snap : Collector.snapshot;  (* its counters, visited set and bugs *)
  r_deferred : 's Strategy.item list;  (* next-round items, any order *)
  r_params : (string * string) list option;
      (* round-local params reported by a remote strategy instance
         ([Strategy.merge_params]); [None] in process, where the worker
         states themselves reach [after_round] *)
  r_flush : unit -> unit;  (* replay its buffered telemetry *)
}

let merge col reports =
  let candidates = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some r ->
        Collector.merge_stats col r.r_snap;
        candidates := Collector.snapshot_bugs r.r_snap @ !candidates)
    reports;
  absorb_bugs col !candidates

let deferred_of reports =
  List.concat_map
    (function None -> [] | Some r -> r.r_deferred)
    (Array.to_list reports)

let params_of reports =
  Array.fold_right
    (fun r acc ->
      match r with Some { r_params = Some p; _ } -> p :: acc | _ -> acc)
    reports []

(* --- the per-item runner -------------------------------------------------- *)

(* Turn an item back into a state through the worker's replayer (snapshot
   cache or from-the-root replay); replays never touch the collector.  A
   prefix that no longer replays means the program is nondeterministic or
   the checkpoint foreign: [strict] (the serial resume) rejects it,
   otherwise it is contained as a replayable bug like any engine crash. *)
let materialize (type s) (module E : Engine.S with type state = s) ~strict
    (rp : s Search_core.replayer) col it =
  match rp.Search_core.rp_run it with
  | Ok st -> Some st
  | Error (_, _, exn) when strict ->
    invalid_arg
      (Printf.sprintf
         "Explore.resume: a checkpointed schedule no longer replays (%s); \
          the checkpoint belongs to a different or nondeterministic program"
         (Printexc.to_string exn))
  | Error (st, t, exn) ->
    Search_core.record_crash (module E) col st t exn;
    None

(* One worker's item loop body, shared by the serial queue, the domain
   workers and the TCP worker's batches: materialize, [Item_started],
   expand, [Item_finished].  [Collector.Stop] escapes (serial mode) with
   no [Item_finished]. *)
let item_runner (type s) (module E : Engine.S with type state = s)
    ?(strict = false) ~expand ~(rp : s Search_core.replayer) ~col ~emit ~push
    ~defer () =
  let ctx =
    {
      Strategy.c_col = col;
      c_push = push;
      c_defer = defer;
      c_materialize = materialize (module E) ~strict rp col;
    }
  in
  fun (it : s Strategy.item) ->
    let execs0 = Collector.executions col in
    let steps0 = Collector.total_steps col in
    let t0 =
      if Icb_obs.Emit.enabled emit then begin
        Icb_obs.Emit.emit emit
          (Icb_obs.Event.Item_started
             {
               prefix = List.length it.Strategy.i_sched;
               payload = it.Strategy.i_payload;
             });
        Unix.gettimeofday ()
      end
      else 0.0
    in
    expand ctx it;
    if Icb_obs.Emit.enabled emit then
      Icb_obs.Emit.emit emit
        (Icb_obs.Event.Item_finished
           {
             seconds = Unix.gettimeofday () -. t0;
             executions = Collector.executions col - execs0;
             steps = Collector.total_steps col - steps0;
           })

(* --- run set-up and teardown ---------------------------------------------- *)

(* Checkpoint write control. *)
type ckpt_ctl = {
  ck_path : string;
  ck_every : int;               (* executions between periodic saves *)
  ck_meta : (string * string) list;
  mutable ck_last : int;        (* executions at the last capture *)
  ck_events : Icb_obs.Emit.t;   (* telemetry for Checkpoint_written *)
}

type session = {
  master : Collector.t;
  options : Collector.options;  (* the caller's, telemetry installed *)
  emit : Icb_obs.Emit.t;
  ckpt : ckpt_ctl option;
  resume : Checkpoint.v3 option;
  name : string;
  stamp : Checkpoint.v3 -> Checkpoint.v3;
      (* appends the fingerprint and cumulative timing params, as of
         the call *)
  note_round_done : int -> unit;
}

(* [who] prefixes the rejection messages; [fp] is the program
   fingerprint (may be [""] when no checkpoint is read or written). *)
let start (type s) (module S : Strategy.S with type state = s) ~who ~fp
    ~options ~emit ?checkpoint_out ~checkpoint_every ~checkpoint_meta
    ?resume_from ~domains () =
  let options =
    if Icb_obs.Emit.enabled emit then { options with Collector.events = emit }
    else options
  in
  let resume =
    Option.map
      (fun (c : Checkpoint.t) ->
        let f = Checkpoint.to_v3 c in
        if f.Checkpoint.v3_tag <> S.tag then
          invalid_arg
            (Printf.sprintf "%s: checkpoint was written by a %s search, not %s"
               who f.Checkpoint.v3_tag S.tag);
        (match List.assoc_opt fingerprint_key f.Checkpoint.v3_params with
        | Some s when s <> fp ->
          invalid_arg
            (who
           ^ ": the checkpoint belongs to a different program (initial-state \
              fingerprint mismatch)")
        | Some _ | None -> ());
        f)
      resume_from
  in
  let master =
    match resume_from with
    | None -> Collector.create options
    | Some (c : Checkpoint.t) ->
      Collector.restore options c.Checkpoint.collector
  in
  (* Cumulative wall-clock accounting, carried across interruptions via
     checkpoint params: [base_elapsed]/[bound_times] seed from the
     resumed file, [note_round_done] charges each completed round, and
     [stamp] writes fingerprint + timing into every save (charging the
     current partial round without closing it). *)
  let run_started_at = Unix.gettimeofday () in
  let param key =
    Option.bind resume (fun (f : Checkpoint.v3) ->
        List.assoc_opt key f.Checkpoint.v3_params)
  in
  let base_elapsed =
    Option.value
      (Option.bind (param Checkpoint.elapsed_key) float_of_string_opt)
      ~default:0.0
  in
  let bound_times =
    ref
      (match param Checkpoint.bound_times_key with
      | Some s -> Checkpoint.decode_bound_times s
      | None -> [])
  in
  let round_started = ref run_started_at in
  let add_bound_time bt (b, d) =
    if List.mem_assoc b bt then
      List.map (fun (b', s) -> if b' = b then (b', s +. d) else (b', s)) bt
    else if d < 0.0005 then bt (* no entries for rounds never explored *)
    else bt @ [ (b, d) ]
  in
  let note_round_done r =
    let now = Unix.gettimeofday () in
    bound_times := add_bound_time !bound_times (r, now -. !round_started);
    round_started := now
  in
  let stamp (f : Checkpoint.v3) =
    let now = Unix.gettimeofday () in
    let bt = add_bound_time !bound_times (S.round (), now -. !round_started) in
    {
      f with
      Checkpoint.v3_params =
        f.Checkpoint.v3_params
        @ [
            (fingerprint_key, fp);
            ( Checkpoint.elapsed_key,
              Printf.sprintf "%.3f" (base_elapsed +. now -. run_started_at) );
            (Checkpoint.bound_times_key, Checkpoint.encode_bound_times bt);
          ];
    }
  in
  let ckpt =
    Option.map
      (fun path ->
        {
          ck_path = path;
          ck_every = max 1 checkpoint_every;
          ck_meta = checkpoint_meta;
          ck_last = Collector.executions master;
          ck_events = emit;
        })
      checkpoint_out
  in
  if Icb_obs.Emit.enabled emit then
    Icb_obs.Emit.emit emit
      (Icb_obs.Event.Run_started
         { strategy = S.name; domains; resumed = resume_from <> None });
  { master; options; emit; ckpt; resume; name = S.name; stamp; note_round_done }

(* --- checkpoints ------------------------------------------------------------ *)

(* A checkpoint is taken in two halves.  The capture runs while the
   search is quiescent — the serial loop between items, the domain
   transport's pause quorum, the lease transport under its lock, the
   run's end — and reads everything that is live: the strategy's params
   over the worker states, the clock, the items and reports as they stand.
   It also moves the cadence mark [ck_last].  The write then sorts the
   captured items, builds the collector to save, marshals, frames and
   renames; it reads nothing the workers own, so a transport may run it
   after releasing them, one write at a time, in capture order. *)

(* The write half: [col] with the frontier [f], then [Checkpoint_written]
   once the file is in place. *)
let write sess ctl col (f : Checkpoint.v3) =
  Checkpoint.save ~path:ctl.ck_path
    {
      Checkpoint.strategy = sess.name;
      meta = ctl.ck_meta;
      collector = Collector.snapshot col;
      frontier = Checkpoint.V3 f;
    };
  if Icb_obs.Emit.enabled ctl.ck_events then
    Icb_obs.Emit.emit ctl.ck_events
      (Icb_obs.Event.Checkpoint_written
         { path = ctl.ck_path; executions = Collector.executions col })

(* Capture and write at once, where the caller owns [col] and the
   frontier [frontier ()] (built only when a checkpoint is being
   written): the serial loop and the run's final save. *)
let checkpoint sess col frontier =
  match sess.ckpt with
  | None -> ()
  | Some ctl ->
    ctl.ck_last <- Collector.executions col;
    write sess ctl col (sess.stamp (frontier ()))

(* A periodic checkpoint is due once the run has [executions]. *)
let checkpoint_due sess ~executions =
  match sess.ckpt with
  | None -> false
  | Some ctl -> executions - ctl.ck_last >= ctl.ck_every

let start_round sess ~round n =
  Collector.note_frontier sess.master n;
  if Icb_obs.Emit.enabled sess.emit then
    Icb_obs.Emit.emit sess.emit
      (Icb_obs.Event.Bound_started { bound = round; items = n })

let finish sess =
  let res = Collector.result sess.master ~strategy:sess.name in
  if Icb_obs.Emit.enabled sess.emit then
    Icb_obs.Emit.emit sess.emit
      (Icb_obs.Event.Run_finished
         {
           executions = res.Sresult.executions;
           states = res.Sresult.distinct_states;
           bugs = List.length res.Sresult.bugs;
           complete = res.Sresult.complete;
           stop_reason =
             Option.map Sresult.stop_reason_string res.Sresult.stop_reason;
         });
  res

(* --- the round loop ------------------------------------------------------- *)

type counts = { executions : int; states : int; steps : int; bugs : int }

(* What the core hands a transport for one round. *)
type 's round = {
  base : counts;  (* the master's totals at round start *)
  check :
    executions:int -> states:int -> steps:int -> bugs:int ->
    Sresult.stop_reason option;
      (* {!check_limits} over round-local deltas on top of [base] *)
  ckpt_due : executions:int -> bool;
      (* a periodic checkpoint is due after that many round executions *)
  capture : 's report option array -> 's Strategy.item list -> unit -> unit;
      (* a mid-round checkpoint from the reports so far and the items not
         yet processed.  Applied while they are quiescent, it captures
         (see {!checkpoint}) and returns the write, which may run once
         the workers have resumed — at most one in flight, in capture
         order, and all before the transport returns *)
  sent : Checkpoint.v3 Lazy.t;
      (* the round's tag, counter and params, for remote strategy
         instances (no frontier: the core holds no item past its hand-off,
         so processed items and their states can be collected) *)
  expand :
    int -> (module Engine.S with type state = 's) ->
    's Strategy.ctx -> 's Strategy.item -> unit;
      (* [expand i e]: worker [i]'s expansion, over its own worker state *)
  progress : executions:int -> states:int -> bugs:int -> unit;
      (* relay round-local deltas to the caller's [on_progress] *)
}

type 's outcome = {
  reports : 's report option array;  (* merge order; [None] = lost *)
  unfinished : 's Strategy.item list;  (* never processed *)
  stop : Sresult.stop_reason option;
}

let run (type s) (module S : Strategy.S with type state = s) sess ~workers
    ~(root : (module Engine.S with type state = s))
    (transport : s round -> s Strategy.item list -> s outcome) =
  let master = sess.master in
  let options = sess.options in
  let wstates = Array.init workers (fun _ -> S.wstate ()) in
  let progress_m = Mutex.create () in
  (* Serialize a frontier with the workers' [reported] round-local params
     folded over this instance's own. *)
  let frontier ?(reported = []) ~work ~next () =
    let f = S.to_prefixes ~wstates ~work ~next in
    let sent = f.Checkpoint.v3_params in
    { f with Checkpoint.v3_params = Strategy.merge_params ~sent ~reported }
  in
  (* [work] and [next] in round order *)
  let save col ~work ~next =
    checkpoint sess col (fun () ->
        frontier ~work:(strip_items work) ~next:(strip_items next) ())
  in
  let rec drive work carry =
    (* An empty frontier still runs the (trivial) round: a resumed
       checkpoint killed exactly at a round boundary owes [after_round]
       the decision — deepen, seal off as `Bounded, or conclude. *)
    let work = sorted_items work in
    let n_work = List.length work in
    start_round sess ~round:(S.round ()) n_work;
    let master_snap = Collector.snapshot master in
    let base =
      {
        executions = Collector.executions master;
        states = Collector.seen_states master;
        steps = Collector.total_steps master;
        bugs = Collector.bug_count master;
      }
    in
    let rc =
      {
        base;
        check =
          (fun ~executions ~states ~steps ~bugs ->
            check_limits options
              ~executions:(base.executions + executions)
              ~states:(base.states + states) ~steps:(base.steps + steps)
              ~bugs:(base.bugs + bugs));
        ckpt_due =
          (fun ~executions ->
            checkpoint_due sess ~executions:(base.executions + executions));
        capture =
          (fun reports remaining ->
            match sess.ckpt with
            | None -> ignore
            | Some ctl ->
              ctl.ck_last <-
                Array.fold_left
                  (fun n -> function
                    | None -> n
                    | Some r -> n + Collector.snapshot_executions r.r_snap)
                  base.executions reports;
              (* the strategy's params go empty-handed through
                 [to_prefixes], which places work and next verbatim *)
              let f =
                sess.stamp
                  (frontier ~reported:(params_of reports) ~work:[] ~next:[] ())
              in
              (* stripped now, so the items' retained states can die
                 as the workers go on *)
              let work = strip_items remaining in
              let next = strip_items (carry @ deferred_of reports) in
              fun () ->
                (* everything below reads immutable snapshots and lists *)
                let scratch = Collector.restore (stripped options) master_snap in
                merge scratch reports;
                write sess ctl scratch
                  {
                    f with
                    Checkpoint.v3_work = sorted_prefixes work;
                    v3_next = sorted_prefixes next;
                  });
        sent = lazy (S.to_prefixes ~wstates ~work:[] ~next:[]);
        expand = (fun i e -> S.expand e wstates.(i));
        progress =
          (match options.Collector.on_progress with
          | None -> fun ~executions:_ ~states:_ ~bugs:_ -> ()
          | Some f ->
            fun ~executions ~states ~bugs ->
              with_lock progress_m (fun () ->
                  f
                    {
                      Collector.p_executions = base.executions + executions;
                      p_states = base.states + states;
                      p_bugs = base.bugs + bugs;
                      p_elapsed = Collector.elapsed master;
                      p_bound = Some (S.round ());
                      p_frontier = Some n_work;
                    }));
      }
    in
    let o = transport rc work in
    (* the deterministic barrier merge, in report order; then telemetry:
       replay each report's buffered events in the same order — the
       merged trace is deterministic up to timestamps — and stamp its
       totals *)
    merge master o.reports;
    Array.iteri
      (fun i -> function
        | None -> ()
        | Some r ->
          r.r_flush ();
          if Icb_obs.Emit.enabled sess.emit then
            Icb_obs.Emit.emit sess.emit
              (Icb_obs.Event.Worker_stats
                 {
                   stats_for = i;
                   executions = Collector.snapshot_executions r.r_snap;
                   steps = Collector.snapshot_steps r.r_snap;
                   bugs = List.length (Collector.snapshot_bugs r.r_snap);
                 }))
      o.reports;
    let next_items = sorted_items (carry @ deferred_of o.reports) in
    (* fold remote workers' round-local params (truncation and sealing
       counts, PCT's step estimate) back into this instance, as if one
       [to_prefixes] had seen the union of their worker states.  The
       frontier [of_prefixes] hands back is discarded; a non-empty work
       list keeps the randomized strategies from minting a batch. *)
    (match params_of o.reports with
    | [] -> ()
    | reported ->
      let sent = Lazy.force rc.sent in
      ignore
        (S.of_prefixes master
           {
             sent with
             Checkpoint.v3_params =
               Strategy.merge_params ~sent:sent.Checkpoint.v3_params ~reported;
             v3_work = [ ([], Strategy.visit) ];
           }));
    sess.note_round_done (S.round ());
    match o.stop with
    | Some r ->
      Collector.note_stop master r;
      save master ~work:(sorted_items o.unfinished) ~next:next_items
    | None -> (
      Collector.mark_growth master;
      match S.after_round master ~wstates ~deferred:next_items with
      | `Complete ->
        Collector.set_complete master;
        save master ~work:[] ~next:[]
      | `Bounded -> save master ~work:[] ~next:next_items
      | `Round items -> drive items [])
  in
  match sess.resume with
  | Some f ->
    let work, carry = S.of_prefixes master f in
    drive (List.map of_prefix work) (List.map of_prefix carry)
  | None ->
    let items = S.roots root wstates.(0) master in
    if items = [] then Collector.set_complete master else drive items []
