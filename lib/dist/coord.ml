module Json = Icb_obs.Json
module Telemetry = Icb_obs.Telemetry
module Metrics = Icb_obs.Metrics
module Http = Icb_obs.Http
module Collector = Icb_search.Collector
module Strategy = Icb_search.Strategy
module Explore = Icb_search.Explore
module Checkpoint = Icb_search.Checkpoint
module Search_core = Icb_search.Search_core
module Sresult = Icb_search.Sresult
module Rounds = Icb_search.Rounds

(* --- state ---------------------------------------------------------------- *)

type lease = { l_token : int; l_batch : int; l_conn : int; l_issued : float }

(* One round of the search, while it is being served.  [rs_items.(b)] is
   batch [b]'s work slice; a batch is always in exactly one place —
   pending, leased (at most one live lease), or completed
   ([rs_reports.(b) = Some _]) — which is what makes absorption
   at-most-once. *)
type round_state = {
  rs_round : int;
  rs_tag : string;
  rs_params : (string * string) list;
  rs_items : (int list * int) list array;
  rs_reports : (Proto.report * Collector.snapshot) option array;
  mutable rs_pending : int list; (* sorted batch ids *)
  mutable rs_leases : lease list;
  mutable rs_completed : int;
}

(* Limit accounting for the round being served, batch-granular: the
   counters absorbed so far, checked by the round core on top of its
   round-start totals ([ta_base]). *)
type tally = {
  ta_base : Rounds.counts;
  ta_check :
    executions:int -> states:int -> steps:int -> bugs:int ->
    Sresult.stop_reason option;
  ta_due : executions:int -> bool;
  mutable ta_execs : int;
  mutable ta_states : int;
  mutable ta_steps : int;
  mutable ta_bugs : int;
}

type phase = Starting | Serving | Finished

type mx = {
  mx_workers : Metrics.gauge;
  mx_leased : Metrics.counter;
  mx_completed : Metrics.counter;
  mx_reissued : Metrics.counter;
  mx_stale : Metrics.counter;
  mx_rounds : Metrics.counter;
}

type t = {
  sock : Unix.file_descr;
  sock_port : int;
  wake_addr : Unix.sockaddr; (* self-connect target to unblock accept *)
  m : Mutex.t;
  cv : Condition.t;
  tel : Telemetry.t;
  lease_timeout : float;
  batch_size : int;
  mx : mx;
  mutable phase : phase;
  mutable strat_name : string;
  mutable job : Proto.job option; (* [j_worker] re-stamped per hello *)
  mutable round : round_state option;
  mutable tally : tally option;
  mutable stop_requested : Sresult.stop_reason option;
  mutable ck_wanted : bool;
  mutable next_worker : int;
  mutable next_token : int;
  mutable workers : int;
  mutable next_conn : int;
  mutable closed : bool;
  mutable acceptor : Thread.t option;
}

let port t = t.sock_port
let telemetry t = t.tel

(* Metric updates run while holding [t.m]; the registry itself is only
   safe under the telemetry consumer lock, so the order is always
   [t.m] then [Telemetry.locked] — the HTTP handlers take one or the
   other, never both. *)
let m_inc t c = Telemetry.locked t.tel (fun () -> Metrics.inc c 1.)
let m_add t c n = Telemetry.locked t.tel (fun () -> Metrics.inc c (float_of_int n))
let m_set t g v = Telemetry.locked t.tel (fun () -> Metrics.set g (float_of_int v))

(* --- lease bookkeeping (all under [t.m]) ---------------------------------- *)

let requeue t rs batches =
  if batches <> [] then begin
    rs.rs_pending <- List.sort compare (batches @ rs.rs_pending);
    m_add t t.mx.mx_reissued (List.length batches)
  end

let void_conn_leases t conn =
  match t.round with
  | None -> ()
  | Some rs ->
    let mine, rest = List.partition (fun l -> l.l_conn = conn) rs.rs_leases in
    rs.rs_leases <- rest;
    requeue t rs (List.map (fun l -> l.l_batch) mine)

let reclaim_expired t rs =
  let now = Unix.gettimeofday () in
  let dead, live =
    List.partition (fun l -> now -. l.l_issued > t.lease_timeout) rs.rs_leases
  in
  rs.rs_leases <- live;
  requeue t rs (List.map (fun l -> l.l_batch) dead)

let request_stop t r =
  if t.stop_requested = None then t.stop_requested <- Some r

let tally t snap =
  match t.tally with
  | None -> ()
  | Some ta ->
    ta.ta_execs <- ta.ta_execs + Collector.snapshot_executions snap;
    ta.ta_states <- ta.ta_states + Collector.snapshot_states snap;
    ta.ta_steps <- ta.ta_steps + Collector.snapshot_steps snap;
    ta.ta_bugs <- ta.ta_bugs + List.length (Collector.snapshot_bugs snap);
    Option.iter (request_stop t)
      (ta.ta_check ~executions:ta.ta_execs ~states:ta.ta_states
         ~steps:ta.ta_steps ~bugs:ta.ta_bugs);
    if ta.ta_due ~executions:ta.ta_execs then t.ck_wanted <- true

(* --- protocol handling ---------------------------------------------------- *)

let absorb t ~lease ~(report : Proto.report) =
  let stale () =
    m_inc t t.mx.mx_stale;
    Proto.Stale
  in
  match t.round with
  | Some rs when t.phase = Serving -> (
    match List.find_opt (fun l -> l.l_token = lease) rs.rs_leases with
    | None -> stale ()
    | Some l -> (
      match Collector.snapshot_of_json report.Proto.r_snapshot with
      | Error _ -> stale ()
      | Ok snap ->
        rs.rs_leases <- List.filter (fun x -> x.l_token <> lease) rs.rs_leases;
        rs.rs_reports.(l.l_batch) <- Some (report, snap);
        rs.rs_completed <- rs.rs_completed + 1;
        m_inc t t.mx.mx_completed;
        tally t snap;
        Condition.broadcast t.cv;
        Proto.Accepted))
  | _ -> stale ()

(* [greeted] is per connection: the worker gauge counts connections that
   completed a hello, and is decremented when they drop. *)
let reply_to t ~conn ~greeted msg =
  match msg with
  | Proto.Hello -> (
    match t.job with
    | None -> Proto.Wait { ms = 50 }
    | Some job ->
      if not !greeted then begin
        greeted := true;
        t.workers <- t.workers + 1;
        m_set t t.mx.mx_workers t.workers
      end;
      let wid = t.next_worker in
      t.next_worker <- t.next_worker + 1;
      Proto.Job { job with Proto.j_worker = wid })
  | Proto.Request -> (
    match t.round with
    | Some rs when t.phase = Serving && t.stop_requested = None -> (
      reclaim_expired t rs;
      match rs.rs_pending with
      | [] -> Proto.Wait { ms = 50 }
      | b :: rest ->
        rs.rs_pending <- rest;
        let token = t.next_token in
        t.next_token <- t.next_token + 1;
        rs.rs_leases <-
          {
            l_token = token;
            l_batch = b;
            l_conn = conn;
            l_issued = Unix.gettimeofday ();
          }
          :: rs.rs_leases;
        m_inc t t.mx.mx_leased;
        Proto.Batch
          {
            Proto.b_lease = token;
            b_id = b;
            b_tag = rs.rs_tag;
            b_params = rs.rs_params;
            b_round = rs.rs_round;
            b_items = rs.rs_items.(b);
          })
    | _ -> if t.phase = Finished then Proto.Done else Proto.Wait { ms = 50 })
  | Proto.Result { lease; report } -> absorb t ~lease ~report

let serve_protocol t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let conn = Rounds.with_lock t.m (fun () ->
      let c = t.next_conn in
      t.next_conn <- t.next_conn + 1;
      c)
  in
  let greeted = ref false in
  Fun.protect
    ~finally:(fun () ->
      Rounds.with_lock t.m (fun () ->
          void_conn_leases t conn;
          if !greeted then begin
            t.workers <- t.workers - 1;
            m_set t t.mx.mx_workers t.workers
          end;
          Condition.broadcast t.cv))
    (fun () ->
      let rec loop () =
        match Proto.recv ic with
        | Error (`Closed | `Malformed _) -> ()
        | Ok j -> (
          match Proto.c2s_of_json j with
          | Error _ -> ()
          | Ok msg ->
            let reply =
              Rounds.with_lock t.m (fun () -> reply_to t ~conn ~greeted msg)
            in
            (match Proto.send oc (Proto.s2c_to_json reply) with
            | () -> loop ()
            | exception Sys_error _ -> ()))
      in
      loop ())

(* --- HTTP handling -------------------------------------------------------- *)

let phase_string = function
  | Starting -> "starting"
  | Serving -> "serving"
  | Finished -> "finished"

let status_json t =
  Rounds.with_lock t.m (fun () ->
      let batches =
        match t.round with
        | None -> []
        | Some rs ->
          [
            ( "batches",
              Json.Obj
                [
                  ("total", Json.Int (Array.length rs.rs_items));
                  ("completed", Json.Int rs.rs_completed);
                  ("pending", Json.Int (List.length rs.rs_pending));
                  ("leased", Json.Int (List.length rs.rs_leases));
                ] );
            ("round", Json.Int rs.rs_round);
          ]
      in
      let counters =
        match t.tally with
        | None -> []
        | Some ta ->
          [
            ("executions", Json.Int (ta.ta_base.executions + ta.ta_execs));
            ("total_steps", Json.Int (ta.ta_base.steps + ta.ta_steps));
            ("bugs", Json.Int (ta.ta_base.bugs + ta.ta_bugs));
          ]
      in
      Json.Obj
        ([
           ("phase", Json.String (phase_string t.phase));
           ("strategy", Json.String t.strat_name);
           ("port", Json.Int t.sock_port);
           ("workers", Json.Int t.workers);
           ( "stop_reason",
             match t.stop_requested with
             | None -> Json.Null
             | Some r -> Json.String (Sresult.stop_reason_string r) );
         ]
        @ batches @ counters))

let serve_http t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  match Http.read_request ic with
  | Error _ -> ()
  | Ok { Http.meth; path } -> (
    match (meth, path) with
    | ("GET" | "HEAD"), "/metrics" ->
      let body =
        Telemetry.locked t.tel (fun () ->
            Metrics.to_prometheus (Telemetry.metrics t.tel))
      in
      Http.respond oc ~content_type:"text/plain; version=0.0.4" body
    | ("GET" | "HEAD"), "/status" ->
      Http.respond oc ~content_type:"application/json"
        (Json.to_string (status_json t))
    | ("GET" | "HEAD"), _ -> Http.not_found oc
    | _ -> Http.method_not_allowed oc)

(* --- accept loop ---------------------------------------------------------- *)

(* The two protocols share the port; the first eight bytes distinguish
   them ({!Proto.magic} vs an HTTP request line) without consuming
   anything either parser needs. *)
let peek8 fd =
  let buf = Bytes.create 8 in
  let rec go () =
    match Unix.recv fd buf 0 8 [ Unix.MSG_PEEK ] with
    | 0 -> None
    | n when n >= 8 -> Some (Bytes.sub_string buf 0 8)
    | _ ->
      Unix.sleepf 0.002;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> None
  in
  go ()

let handle_conn t fd =
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  match peek8 fd with
  | None -> close ()
  | Some prefix ->
    Fun.protect ~finally:close (fun () ->
        if String.equal prefix Proto.magic then serve_protocol t fd
        else serve_http t fd)

let acceptor t () =
  let rec loop () =
    match Unix.accept t.sock with
    | fd, _ ->
      if Rounds.with_lock t.m (fun () -> t.closed) then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        try Unix.close t.sock with Unix.Unix_error _ -> ()
      end
      else begin
        ignore (Thread.create (fun () -> handle_conn t fd) ());
        loop ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> (
      try Unix.close t.sock with Unix.Unix_error _ -> ())
  in
  loop ()

(* --- construction --------------------------------------------------------- *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      invalid_arg (Printf.sprintf "Coord.create: cannot resolve host %s" host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found ->
      invalid_arg (Printf.sprintf "Coord.create: cannot resolve host %s" host))

let create ?(host = "127.0.0.1") ?(port = 0) ?(lease_timeout = 30.)
    ?(batch_size = 32) ?telemetry () =
  if batch_size < 1 then invalid_arg "Coord.create: batch_size must be >= 1";
  if lease_timeout <= 0. then
    invalid_arg "Coord.create: lease_timeout must be positive";
  let tel =
    match telemetry with Some t -> t | None -> Telemetry.create ()
  in
  Telemetry.track_metrics tel;
  let mx =
    Telemetry.locked tel (fun () ->
        let m = Telemetry.metrics tel in
        {
          mx_workers =
            Metrics.gauge m ~help:"Connected distributed workers"
              "icb_dist_workers";
          mx_leased =
            Metrics.counter m ~help:"Work-item batches leased to workers"
              "icb_dist_batches_leased";
          mx_completed =
            Metrics.counter m ~help:"Batches absorbed into the master"
              "icb_dist_batches_completed";
          mx_reissued =
            Metrics.counter m
              ~help:"Leases voided (expiry or disconnect) and re-queued"
              "icb_dist_leases_reissued";
          mx_stale =
            Metrics.counter m ~help:"Reports rejected for a voided lease"
              "icb_dist_stale_reports";
          mx_rounds =
            Metrics.counter m ~help:"Completed distributed rounds"
              "icb_dist_rounds";
        })
  in
  let addr = resolve_host host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let sock_port =
    try
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (addr, port));
      Unix.listen sock 64;
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    with e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e
  in
  let wake_addr =
    let a =
      if addr = Unix.inet_addr_any then Unix.inet_addr_loopback else addr
    in
    Unix.ADDR_INET (a, sock_port)
  in
  let t =
    {
      sock;
      sock_port;
      wake_addr;
      m = Mutex.create ();
      cv = Condition.create ();
      tel;
      lease_timeout;
      batch_size;
      mx;
      phase = Starting;
      strat_name = "";
      job = None;
      round = None;
      tally = None;
      stop_requested = None;
      ck_wanted = false;
      next_worker = 0;
      next_token = 0;
      workers = 0;
      next_conn = 0;
      closed = false;
      acceptor = None;
    }
  in
  t.acceptor <- Some (Thread.create (acceptor t) ());
  t

let shutdown t =
  let was_closed = Rounds.with_lock t.m (fun () ->
      let c = t.closed in
      t.closed <- true;
      if t.phase <> Serving then t.phase <- Finished;
      Condition.broadcast t.cv;
      c)
  in
  if not was_closed then begin
    (* unblock [accept]: the acceptor sees [closed] and closes the
       listening socket itself *)
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect fd t.wake_addr with Unix.Unix_error _ -> ());
       try Unix.close fd with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    match t.acceptor with None -> () | Some th -> Thread.join th
  end


(* --- the lease transport -------------------------------------------------- *)

(* One round of {!Rounds.run}, served to TCP workers: the sorted work is
   cut into contiguous [batch_size] slices (so a worker's consecutive
   batches share schedule prefixes and hit its replay cache) and leased
   out; each absorbed batch is one report, in batch-id order.  Blocks
   until every batch is absorbed or a stop is requested, handing the
   core a mid-round checkpoint whenever one falls due. *)
let serve_round (type s) t (rc : s Rounds.round) (work : s Strategy.item list)
    : s Rounds.outcome =
  let sent = Lazy.force rc.Rounds.sent in
  let arr =
    Array.map Rounds.strip_items (Rounds.slices ~size:t.batch_size work)
  in
  let nb = Array.length arr in
  Rounds.with_lock t.m (fun () ->
      t.tally <-
        Some
          {
            ta_base = rc.Rounds.base;
            ta_check = rc.Rounds.check;
            ta_due = rc.Rounds.ckpt_due;
            ta_execs = 0;
            ta_states = 0;
            ta_steps = 0;
            ta_bugs = 0;
          };
      t.ck_wanted <- false;
      t.round <-
        Some
          {
            rs_round = sent.Checkpoint.v3_round;
            rs_tag = sent.Checkpoint.v3_tag;
            rs_params = sent.Checkpoint.v3_params;
            rs_items = arr;
            rs_reports = Array.make nb None;
            rs_pending = List.init nb Fun.id;
            rs_leases = [];
            rs_completed = 0;
          };
      t.phase <- Serving;
      Condition.broadcast t.cv);
  let reports reps =
    Array.map
      (Option.map (fun ((rep : Proto.report), snap) ->
           {
             Rounds.r_snap = snap;
             r_deferred = List.map Rounds.of_prefix rep.Proto.r_deferred;
             r_params = Some rep.Proto.r_params;
             r_flush =
               (fun () ->
                 Telemetry.inject t.tel
                   (List.filter_map
                      (fun ej -> Result.to_option (Icb_obs.Event.of_json ej))
                      rep.Proto.r_events));
           }))
      reps
  in
  let unabsorbed reps =
    Array.to_list arr
    |> List.filteri (fun b _ -> Option.is_none reps.(b))
    |> List.concat
    |> List.map Rounds.of_prefix
  in
  let rec wait () =
    let what =
      Rounds.with_lock t.m (fun () ->
          let rs = Option.get t.round in
          if rs.rs_completed >= nb || t.stop_requested <> None then `Barrier
          else if t.ck_wanted then begin
            t.ck_wanted <- false;
            (* captured under the lock, which also orders the cadence
               mark against [tally] *)
            `Write
              (rc.Rounds.capture (reports rs.rs_reports)
                 (unabsorbed rs.rs_reports))
          end
          else begin
            Condition.wait t.cv t.m;
            `Again
          end)
    in
    match what with
    | `Barrier -> ()
    | `Write write ->
      (* written in this thread with [t.m] released: connections go on
         absorbing reports meanwhile *)
      write ();
      wait ()
    | `Again -> wait ()
  in
  wait ();
  (* retire the round before merging: late reports turn stale *)
  let rs, stop =
    Rounds.with_lock t.m (fun () ->
        let rs = Option.get t.round in
        t.round <- None;
        t.phase <- Starting;
        (rs, t.stop_requested))
  in
  m_inc t t.mx.mx_rounds;
  {
    Rounds.reports = reports rs.rs_reports;
    unfinished = unabsorbed rs.rs_reports;
    stop;
  }

(* --- the search ----------------------------------------------------------- *)

let run (type s) t (module E : Icb_search.Engine.S with type state = s)
    ?(options = Collector.default_options) ?checkpoint_out
    ?(checkpoint_every = Search_core.default_checkpoint_every)
    ?(checkpoint_meta = []) ?resume_from ?env ?(cache = true) strategy :
    Sresult.t =
  let (module S : Strategy.S with type state = s) =
    Explore.instantiate ?env (module E) strategy
  in
  if not (S.shardable && S.checkpointable) then
    invalid_arg
      (Printf.sprintf
         "Coord.run: the %s frontier does not distribute (it must shard \
          and serialize; strategies that do: icb, dfs, db:N, idfs:N, \
          random, pct:N, vb:N, tb:N, icb-vb:N)"
         S.name);
  let fp = Rounds.fingerprint (module E) in
  let sess =
    Rounds.start (module S) ~who:"Coord.run" ~fp ~options
      ~emit:(Telemetry.emitter t.tel ~worker:0)
      ?checkpoint_out ~checkpoint_every ~checkpoint_meta ?resume_from
      ~domains:0 ()
  in
  (* publish the job: from here on, hellos are answered *)
  Rounds.with_lock t.m (fun () ->
      if t.closed then invalid_arg "Coord.run: the coordinator was shut down";
      if t.job <> None then
        invalid_arg "Coord.run: the coordinator already ran a search";
      t.strat_name <- S.name;
      t.job <-
        Some
          {
            Proto.j_meta = checkpoint_meta;
            j_root_sig = fp;
            j_deadlock_is_error = options.Collector.deadlock_is_error;
            j_terminal_states_only = options.Collector.terminal_states_only;
            j_cache = cache;
            j_worker = 0;
          });
  (* a ticker so a deadline fires and leases expire even while no worker
     is talking to us; it also wakes the round loop *)
  let ticker =
    Thread.create
      (fun () ->
        let rec tick () =
          Unix.sleepf 0.05;
          let live =
            Rounds.with_lock t.m (fun () ->
                if t.stop_requested = None && Rounds.deadline_passed options
                then request_stop t Sresult.Deadline_exceeded;
                (match t.round with
                | Some rs when t.phase = Serving -> reclaim_expired t rs
                | _ -> ());
                Condition.broadcast t.cv;
                t.phase <> Finished)
          in
          if live then tick ()
        in
        tick ())
      ()
  in
  (* However the search ends — a checkpoint write may raise — the phase
     goes [Finished], so the ticker stops and polling workers get [Done]
     instead of waiting on a round nobody serves. *)
  let outcome =
    match
      Rounds.run (module S) sess ~workers:1 ~root:(module E) (serve_round t)
    with
    | () | (exception Collector.Stop) -> Ok ()
    | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
  in
  Rounds.with_lock t.m (fun () ->
      t.phase <- Finished;
      t.round <- None;
      Condition.broadcast t.cv);
  Thread.join ticker;
  (* Give connected workers a moment to poll once more and receive
     [Done], so their processes exit cleanly before the caller tears the
     port down; a worker that lingers past the grace is simply dropped. *)
  let grace = Unix.gettimeofday () +. 5.0 in
  let rec drain () =
    if Rounds.with_lock t.m (fun () -> t.workers) > 0
       && Unix.gettimeofday () < grace
    then begin
      Unix.sleepf 0.02;
      drain ()
    end
  in
  drain ();
  match outcome with
  | Ok () -> Rounds.finish sess
  | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt
