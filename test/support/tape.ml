(* A tape of completed executions, and the machine engine wrapped to
   record onto one.  The tape owns its lock, so any number of engine
   instances — one per worker domain, or one shared by all — can append
   to the same tape concurrently: the tape is then the exact multiset of
   executions the whole run explored, which is what kill/resume must
   preserve. *)

module Engine = Icb_search.Engine

type t = { lock : Mutex.t; mutable runs : int list list }

let create () = { lock = Mutex.create (); runs = [] }
let record t sched = Mutex.protect t.lock (fun () -> t.runs <- sched :: t.runs)
let runs t = Mutex.protect t.lock (fun () -> t.runs)
let sorted t = List.sort compare (runs t)

let recording_engine prog tape :
    (module Engine.S
       with type state = Icb_search.Mach_engine.state * int list) =
  let module Base = (val Icb.engine prog) in
  (module struct
    type state = Base.state * int list (* reversed schedule *)

    let initial () = (Base.initial (), [])
    let enabled (s, _) = Base.enabled s
    let status (s, _) = Base.status s
    let signature (s, _) = Base.signature s
    let depth (s, _) = Base.depth s
    let blocking_ops (s, _) = Base.blocking_ops s
    let preemptions (s, _) = Base.preemptions s
    let schedule (s, _) = Base.schedule s
    let thread_count (s, _) = Base.thread_count s
    let step_footprint (s, _) t = Base.step_footprint s t

    (* the pair is as persistent as the underlying machine state, so the
       wrapper keeps the snapshot capability *)
    type snap = state

    let snapshot = Some (fun (s : state) -> s)
    let restore (s : snap) = s

    let step (s, sched) t =
      let s' = Base.step s t in
      let sched' = t :: sched in
      if Engine.is_terminal (Base.status s') then record tape (List.rev sched');
      (s', sched')
  end)
