module Engine = Icb_search.Engine
module Hbsig = Icb_race.Hbsig
module Vcdetect = Icb_race.Vcdetect

(* Shared by every domain that replays. *)
let replay_count = Atomic.make 0

let replays () = Atomic.get replay_count

(* [List.mem] on thread ids, without polymorphic comparison. *)
let rec mem_tid t = function [] -> false | u :: l -> u = t || mem_tid t l

type state = {
  sched_rev : int list;
  depth : int;
  blocks : int;
  npre : int;
  nthreads : int;
  enabled : int list;          (* cached at creation: pure data *)
  status : Engine.status;
  hbs : Hbsig.t;
  det : Vcdetect.t;
  mutable live : Api.Run.t option;
      (* an execution positioned exactly here, if this state still owns
         one; consumed by the first [step] from this state *)
}

module Make (T : sig
  val test : unit -> unit
end) : Icb_search.Engine.S with type state = state = struct
  type nonrec state = state

  let engine_status = function
    | Api.Run.Running -> Engine.Running
    | Api.Run.Terminated -> Engine.Terminated
    | Api.Run.Deadlock blocked -> Engine.Deadlock blocked
    | Api.Run.Failed msg -> Engine.Failed { key = msg; msg }

  let initial () =
    let r = Api.Run.create T.test in
    let enabled, status = Api.Run.scan r in
    {
      sched_rev = [];
      depth = 0;
      blocks = 0;
      npre = 0;
      nthreads = Api.Run.thread_count r;
      enabled;
      status = engine_status status;
      hbs = Hbsig.empty;
      det = Vcdetect.empty;
      live = Some r;
    }

  (* Replay a recorded schedule prefix on a fresh run, checking at every
     step that the test body takes the same synchronization path it took
     when the prefix was recorded.  A mismatch means the body is
     nondeterministic (timing, [Random], I/O, or state leaking across
     executions): report that directly instead of letting [Api.Run.step]
     die with a bewildering [Invalid_argument]. *)
  let diverged fmt = Format.kasprintf (fun detail ->
      raise (Engine.Nondeterministic_program detail)) fmt

  let replay_prefix s =
    Atomic.incr replay_count;
    let r = Api.Run.create T.test in
    (* replays the schedule oldest step first, returning the steps taken *)
    let rec replay = function
      | [] -> 0
      | t :: earlier ->
        let stepno = replay earlier in
        if not (Api.Run.is_enabled r t) then
          if not (Api.Run.running r) then
            diverged
              "replay of the recorded schedule ended after %d of %d steps \
               (the body finished earlier than when the schedule was \
               recorded)"
              stepno (List.length s.sched_rev)
          else
            diverged
              "at replay step %d thread %d was recorded as running but is \
               not enabled this time"
              stepno t;
        ignore (Api.Run.step r t);
        stepno + 1
    in
    let stepno = replay s.sched_rev in
    (* the rebuilt run must look exactly like the recorded state did *)
    (match s.status with
    | Engine.Running ->
      if Api.Run.enabled r <> s.enabled then
        diverged
          "after replaying %d steps the enabled threads are [%s] but [%s] \
           were recorded"
          stepno
          (String.concat " " (List.map string_of_int (Api.Run.enabled r)))
          (String.concat " " (List.map string_of_int s.enabled))
    | _ -> ());
    r

  (* Rebuild a live run positioned at [s] by replaying its schedule. *)
  let materialize s =
    match s.live with
    | Some r ->
      s.live <- None;
      r
    | None -> replay_prefix s

  let step s t =
    if not (mem_tid t s.enabled) then
      invalid_arg "Chess_engine.step: thread not enabled";
    let r = materialize s in
    let preempting =
      Engine.preempting_by
        (fun en t -> mem_tid t en)
        s.enabled
        ~last_tid:(match s.sched_rev with last :: _ -> last | [] -> -1)
        ~chosen:t
    in
    let events, blocking = Api.Run.step r t in
    let det, race =
      match Vcdetect.observe s.det events with
      | Ok det -> (det, None)
      | Error race ->
        let cell =
          match race.Icb_race.Report.var with
          | Icb_machine.Interp.Gvar (id, _) -> Printf.sprintf "cell %d" id
          | Icb_machine.Interp.Svar (id, _) -> Printf.sprintf "object %d" id
          | Icb_machine.Interp.Hcell (a, _) -> Printf.sprintf "heap &%d" a
        in
        ( s.det,
          Some
            ( "race:" ^ cell,
              Printf.sprintf "data race on %s between threads %d and %d" cell
                race.Icb_race.Report.tid1 race.Icb_race.Report.tid2 ) )
    in
    let enabled, status =
      match race with
      | None ->
        let enabled, status = Api.Run.scan r in
        (enabled, engine_status status)
      | Some (key, msg) -> ([], Engine.Failed { key; msg })
    in
    {
      sched_rev = t :: s.sched_rev;
      depth = s.depth + 1;
      blocks = (s.blocks + if blocking then 1 else 0);
      npre = (s.npre + if preempting then 1 else 0);
      nthreads = Api.Run.thread_count r;
      enabled;
      status;
      hbs = Hbsig.observe s.hbs events;
      det;
      live = (if Option.is_none race then Some r else None);
    }

  let enabled s = s.enabled
  let status s = s.status

  (* Speculation on the stateless engine costs a replay: rebuild a run at
     [s] without consuming [s]'s own live run, step it, read the events.
     Yielding steps and steps that stop the run (errors, races, the final
     termination) are pinned — see Mach_engine.step_footprint. *)
  let step_footprint s tid =
    if not (mem_tid tid s.enabled) then
      invalid_arg "Chess_engine.step_footprint: thread not enabled";
    let r = replay_prefix s in
    let events, _ = Api.Run.step r tid in
    let pinned =
      Api.Run.yielded r tid
      || not (Api.Run.running r)
      || Result.is_error (Vcdetect.observe s.det events)
    in
    Engine.Footprint.of_events ~pinned events
  let signature s = Hbsig.signature s.hbs
  let depth s = s.depth
  let blocking_ops s = s.blocks
  let preemptions s = s.npre
  let schedule s = List.rev s.sched_rev
  let thread_count s = s.nthreads

  (* No snapshot capability: a state's [live] run is a one-shot effects
     continuation consumed by the first step taken from it, so a retained
     copy cannot be re-stepped without replaying — which is exactly what
     declining buys us: the search keeps the stateless replay discipline. *)
  type snap = |

  let snapshot = None
  let restore (_ : snap) : state = assert false
end

let engine test =
  (module Make (struct
    let test = test
  end) : Icb_search.Engine.S
    with type state = state)

let check ?options ?(max_bound = 3) test =
  Icb_search.Explore.check (engine test) ?options ~max_bound ()

(* The variable-bounding strategies need a ranking of the test body's
   shared variables, which only exist dynamically (shims are created
   inside the body).  One profiling execution — always the first enabled
   thread, i.e. ICB's round-0 non-preemptive schedule — counts the
   accesses each variable sees.  Deterministic bodies (a requirement of
   this engine anyway) make the ranking reproducible. *)
let shared_env ?(max_steps = 4096) test =
  let r = Api.Run.create test in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order : string list ref = ref [] in  (* first-seen order for ties *)
  let note var =
    let k = Icb_search.Strategy.key_of_var var in
    (match Hashtbl.find_opt counts k with
    | None -> order := k :: !order
    | Some _ -> ());
    Hashtbl.replace counts k
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  let steps = ref 0 in
  (try
     let continue = ref true in
     while !continue && !steps < max_steps do
       match Api.Run.status r with
       | Api.Run.Running -> (
         match Api.Run.enabled r with
         | [] -> continue := false
         | t :: _ ->
           let events, _ = Api.Run.step r t in
           List.iter
             (fun (ev : Icb_machine.Interp.event) ->
               match ev with
               | Icb_machine.Interp.Ev_sync { var; _ }
               | Icb_machine.Interp.Ev_data { var; _ } -> note var
               | Icb_machine.Interp.Ev_fork _
               | Icb_machine.Interp.Ev_lifetime _ -> ())
             events;
           incr steps)
       | _ -> continue := false
     done
   with _ -> () (* a crashing body still yields the counts seen so far *));
  let svars =
    List.rev !order
    |> List.map (fun k ->
           {
             Icb_search.Strategy.sv_key = k;
             sv_name = k;
             sv_weight = Hashtbl.find counts k;
           })
    |> List.stable_sort (fun a b ->
           compare b.Icb_search.Strategy.sv_weight
             a.Icb_search.Strategy.sv_weight)
  in
  { Icb_search.Strategy.env_svars = svars }

let run ?options ?env ~strategy test =
  let env =
    match env with
    | Some _ -> env
    | None ->
      (* profiling costs one execution of the body, so only pay it for
         the strategies that consume the ranking — existing replay-count
         assertions stay untouched *)
      if Icb_search.Explore.needs_env strategy then Some (shared_env test)
      else None
  in
  Icb_search.Explore.run (engine test) ?options ?env strategy
