module Interp = Icb_machine.Interp

exception Chess_misuse of string

let misuse fmt = Format.kasprintf (fun s -> raise (Chess_misuse s)) fmt

(* --- the scheduling effect ---------------------------------------------

   A thread performs [E_sched point] immediately BEFORE each of its
   synchronization operations; the handler parks the continuation.  The
   operation's mutation happens in the thread's own code right after the
   continuation is resumed, so it executes atomically with the code that
   follows, up to the next perform — exactly the machine's step shape. *)

type sched_point = {
  var : Interp.var_id;
  enabled : unit -> bool;
  blocking : bool;   (* a potentially-blocking operation (lock/wait/acquire) *)
  is_yield : bool;
}

type thread_state =
  | T_not_started of (unit -> unit)
  | T_parked of sched_point * (run_t, unit) Effect.Deep.continuation
  | T_done

and thread_rec = {
  mutable st : thread_state;
  mutable yielded : bool;
}

and run_t = {
  mutable threads : thread_rec array;
  mutable nthreads : int;
  mutable current : int;
  mutable next_var : int;
  mutable events : Interp.event list;  (* current step's, reversed *)
  mutable failure : string option;
}

(* The scheduler resumes a parked thread with the run it belongs to, so
   the operation after a scheduling point needs no lookup. *)
type _ Effect.t += E_sched : sched_point -> run_t Effect.t

(* The run being advanced by [Run.step] is held in a slot so the shim
   primitives without a scheduling point before them can reach it.  Each
   domain has its own slot, so workers on different domains step their
   own runs; [no_run] (never stepped) marks an empty slot without
   allocating an option per step. *)
let no_run =
  {
    threads = [||];
    nthreads = 0;
    current = -1;
    next_var = 0;
    events = [];
    failure = None;
  }

type slot = { mutable run : run_t }

let active : slot Domain.DLS.key = Domain.DLS.new_key (fun () -> { run = no_run })

let the_run () =
  let r = (Domain.DLS.get active).run in
  if r == no_run then
    misuse "Chess primitives must run under Icb_chess exploration"
  else r

let tid () = (the_run ()).current

let fresh_var r =
  let v = r.next_var in
  r.next_var <- v + 1;
  v

let record r ev = r.events <- ev :: r.events

let always_enabled () = true

(* A never-blocking scheduling point on [var].  Shims build their points
   once, at creation, so an operation performs the effect without
   allocating its description. *)
let point ?(is_yield = false) var =
  { var; enabled = always_enabled; blocking = false; is_yield }

(* Park-before-op: returns the run once the scheduler picks this thread
   again. *)
let sched pt = Effect.perform (E_sched pt)

(* Record the calling thread's access to [pt]'s variable. *)
let record_sync r pt = record r (Interp.Ev_sync { tid = r.current; var = pt.var })

(* --- shim primitives ---------------------------------------------------- *)

let spawn_point = point (Interp.Svar (-2, 0))

let spawn body =
  ignore (the_run ()) (* outside an exploration: misuse, not an unhandled effect *);
  let r = sched spawn_point in
  let parent = r.current in
  if r.nthreads = Array.length r.threads then begin
    let bigger =
      Array.make (2 * max 4 r.nthreads) { st = T_done; yielded = false }
    in
    Array.blit r.threads 0 bigger 0 r.nthreads;
    r.threads <- bigger
  end;
  let child = r.nthreads in
  r.threads.(child) <- { st = T_not_started body; yielded = false };
  r.nthreads <- child + 1;
  record r (Interp.Ev_fork { parent; child })

let yield () =
  let r = the_run () in
  ignore (sched (point ~is_yield:true (Interp.Svar (-3, r.current))))

module Mutex = struct
  type t = {
    mutable owner : int;
    acquire : sched_point;
    release : sched_point;
  }

  let create () =
    let var = Interp.Svar (fresh_var (the_run ()), 0) in
    let release = point var in
    let rec m =
      {
        owner = -1;
        acquire =
          { var; enabled = (fun () -> m.owner < 0); blocking = true; is_yield = false };
        release;
      }
    in
    m

  let lock m =
    let r = sched m.acquire in
    record_sync r m.acquire;
    m.owner <- r.current

  let unlock m =
    let r = sched m.release in
    if m.owner <> r.current then
      misuse "unlock of a mutex not held by the calling thread";
    record_sync r m.release;
    m.owner <- -1

  let with_lock m f =
    lock m;
    match f () with
    | v ->
      unlock m;
      v
    | exception e ->
      unlock m;
      raise e
end

module Event = struct
  type t = {
    manual : bool;
    mutable signaled : bool;
    wait_pt : sched_point;
    signal_pt : sched_point;
  }

  let create ?(manual = false) ?(signaled = false) () =
    let var = Interp.Svar (fresh_var (the_run ()), 0) in
    let signal_pt = point var in
    let rec e =
      {
        manual;
        signaled;
        wait_pt =
          { var; enabled = (fun () -> e.signaled); blocking = true; is_yield = false };
        signal_pt;
      }
    in
    e

  let wait e =
    record_sync (sched e.wait_pt) e.wait_pt;
    if not e.manual then e.signaled <- false

  let set e =
    record_sync (sched e.signal_pt) e.signal_pt;
    e.signaled <- true

  let reset e =
    record_sync (sched e.signal_pt) e.signal_pt;
    e.signaled <- false
end

module Semaphore = struct
  type t = {
    mutable count : int;
    acquire_pt : sched_point;
    release_pt : sched_point;
  }

  let create count =
    if count < 0 then misuse "semaphore count must be non-negative";
    let var = Interp.Svar (fresh_var (the_run ()), 0) in
    let release_pt = point var in
    let rec s =
      {
        count;
        acquire_pt =
          { var; enabled = (fun () -> s.count > 0); blocking = true; is_yield = false };
        release_pt;
      }
    in
    s

  let acquire s =
    record_sync (sched s.acquire_pt) s.acquire_pt;
    s.count <- s.count - 1

  let release s =
    record_sync (sched s.release_pt) s.release_pt;
    s.count <- s.count + 1
end

module Shared = struct
  type 'a t = {
    pt : sched_point;
    mutable v : 'a;
  }

  let make v = { pt = point (Interp.Gvar (fresh_var (the_run ()), 0)); v }

  let touch c =
    record_sync (sched c.pt) c.pt

  let get c =
    touch c;
    c.v

  let set c v =
    touch c;
    c.v <- v

  let cas c ~expect ~update =
    touch c;
    if c.v = expect then begin
      c.v <- update;
      true
    end
    else false

  let cas_phys c ~expect ~update =
    touch c;
    if c.v == expect then begin
      c.v <- update;
      true
    end
    else false

  let fetch_add c d =
    touch c;
    let old = c.v in
    c.v <- old + d;
    old
end

module Data = struct
  type 'a t = {
    var : Interp.var_id;
    mutable v : 'a;
  }

  let make v = { var = Interp.Gvar (fresh_var (the_run ()), 0); v }

  let get c =
    let r = the_run () in
    record r (Interp.Ev_data { tid = r.current; var = c.var; write = false });
    c.v

  let set c v =
    let r = the_run () in
    record r (Interp.Ev_data { tid = r.current; var = c.var; write = true });
    c.v <- v
end

(* --- the execution machinery -------------------------------------------- *)

module Run = struct
  type t = run_t

  let create body =
    {
      threads = [| { st = T_not_started body; yielded = false } |];
      nthreads = 1;
      current = -1;
      next_var = 0;
      events = [];
      failure = None;
    }

  let thread_enabled (th : thread_rec) =
    match th.st with
    | T_not_started _ -> true
    | T_parked (pt, _) -> pt.enabled ()
    | T_done -> false

  let enabled_raw r =
    if Option.is_some r.failure then []
    else begin
      let res = ref [] in
      for i = r.nthreads - 1 downto 0 do
        if thread_enabled r.threads.(i) then res := i :: !res
      done;
      !res
    end

  (* Is some enabled thread not yielded?  Then the yield-adjusted enabled
     set is exactly the awake enabled threads. *)
  let rec some_awake r i =
    i < r.nthreads
    && ((let th = r.threads.(i) in
         (not th.yielded) && thread_enabled th)
       || some_awake r (i + 1))

  let rec some_enabled r i =
    i < r.nthreads && (thread_enabled r.threads.(i) || some_enabled r (i + 1))

  let is_enabled r t =
    Option.is_none r.failure
    && t >= 0 && t < r.nthreads
    &&
    let th = r.threads.(t) in
    thread_enabled th && ((not th.yielded) || not (some_awake r 0))

  let running r = Option.is_none r.failure && some_enabled r 0

  type status =
    | Running
    | Terminated
    | Deadlock of int list
    | Failed of string

  let blocked_status r =
    let blocked = ref [] in
    for i = r.nthreads - 1 downto 0 do
      match r.threads.(i).st with
      | T_done -> ()
      | T_not_started _ | T_parked _ -> blocked := i :: !blocked
    done;
    if !blocked = [] then Terminated else Deadlock !blocked

  let status r =
    match r.failure with
    | Some msg -> Failed msg
    | None -> if running r then Running else blocked_status r

  (* One walk over the threads asks each thread's [enabled] predicate
     once; the awake threads are filtered out of that list only when both
     yielded and awake threads are enabled. *)
  let scan r =
    match r.failure with
    | Some msg -> ([], Failed msg)
    | None ->
      let raw = ref [] and yielded = ref false and awake = ref false in
      for i = r.nthreads - 1 downto 0 do
        let th = r.threads.(i) in
        if thread_enabled th then begin
          raw := i :: !raw;
          if th.yielded then yielded := true else awake := true
        end
      done;
      (match !raw with
      | [] -> ([], blocked_status r)
      | raw when !yielded && !awake ->
        (List.filter (fun i -> not r.threads.(i).yielded) raw, Running)
      | raw -> (raw, Running))

  let enabled r = fst (scan r)

  (* Start thread [t]'s body under the scheduling handler.  The handler is
     installed once per thread; resuming a parked continuation re-enters
     it automatically (deep handlers), so parked threads are resumed with
     a bare [continue].  Control returns to the caller when the thread
     parks again, finishes, or raises. *)
  let start_thread r t body =
    let th = r.threads.(t) in
    (* the parking function is built once per thread, not per operation:
       the effect handler leaves the point in [pending] for it *)
    let pending = ref spawn_point in
    let park = Some (fun k -> th.st <- T_parked (!pending, k)) in
    let handler =
      {
        Effect.Deep.retc = (fun () -> th.st <- T_done);
        exnc =
          (fun e ->
            th.st <- T_done;
            if r.failure = None then
              r.failure <-
                Some
                  (match e with
                  | Failure msg -> msg
                  | Assert_failure (file, line, _) ->
                    Printf.sprintf "assertion failure at %s:%d" file line
                  | e -> Printexc.to_string e));
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) Effect.Deep.continuation -> unit) option ->
            match eff with
            | E_sched pt ->
              pending := pt;
              park
            | _ -> None);
      }
    in
    Effect.Deep.match_with body () handler

  let step r t =
    (* an enabled thread implies a running execution: only a refused
       step pays for telling the two apart *)
    if
      Option.is_some r.failure || t < 0 || t >= r.nthreads
      || not (thread_enabled r.threads.(t))
    then
      invalid_arg
        (if running r then "Chess.Run.step: thread not enabled"
         else "Chess.Run.step: execution is not running");
    let th = r.threads.(t) in
    (* yield flags last exactly one scheduling decision *)
    for i = 0 to r.nthreads - 1 do
      r.threads.(i).yielded <- false
    done;
    r.current <- t;
    r.events <- [];
    let slot = Domain.DLS.get active in
    let saved = slot.run in
    slot.run <- r;
    let blocking =
      match th.st with
      | T_not_started body ->
        start_thread r t body;
        false
      | T_parked (pt, k) ->
        th.st <- T_done (* placeholder; the handler reparks or finishes *);
        Effect.Deep.continue k r;
        if pt.is_yield then th.yielded <- true;
        pt.blocking
      | T_done -> assert false
    in
    slot.run <- saved;
    let events =
      match r.events with ([] | [ _ ]) as evs -> evs | evs -> List.rev evs
    in
    (events, blocking)

  let thread_count r = r.nthreads

  let yielded r tid = r.threads.(tid).yielded
end
