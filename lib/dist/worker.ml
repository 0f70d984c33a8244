module Json = Icb_obs.Json
module Collector = Icb_search.Collector
module Strategy = Icb_search.Strategy
module Rounds = Icb_search.Rounds
module Explore = Icb_search.Explore
module Checkpoint = Icb_search.Checkpoint
module Search_core = Icb_search.Search_core

type packed_engine =
  | Packed :
      (module Icb_search.Engine.S with type state = 's)
      -> packed_engine

(* One batch: build a fresh strategy instance positioned at the batch's
   round via [of_prefixes] (the work list is always non-empty, so the
   randomized strategies never mint fresh walks here), drain the local
   queue through the round core's per-item runner exactly like a domain
   worker — own items pop front-first, [c_push] follow-ups run
   depth-first — and serialize everything the coordinator's barrier
   needs.  The collector carries no limits: batches are the unit of both
   work and accounting, and stopping is the coordinator's call. *)
let process_batch (type s) (module E : Icb_search.Engine.S with type state = s)
    ~(rp : s Search_core.replayer) ~(job : Proto.job) ~clock
    (b : Proto.batch) : (Proto.report, string) result =
  let v3 =
    {
      Checkpoint.v3_tag = b.Proto.b_tag;
      v3_params = b.Proto.b_params;
      v3_round = b.Proto.b_round;
      v3_work = b.Proto.b_items;
      v3_next = [];
    }
  in
  match Explore.strategy_of_v3 v3 with
  | exception Invalid_argument msg -> Error msg
  | strat ->
    let (module S : Strategy.S with type state = s) =
      Explore.instantiate (module E) strat
    in
    let buf = ref [] in
    let emit =
      Icb_obs.Emit.live ~worker:job.Proto.j_worker ~clock ~push:(fun env ->
          buf := env :: !buf)
    in
    let lcol =
      Collector.create
        {
          Collector.default_options with
          Collector.deadlock_is_error = job.Proto.j_deadlock_is_error;
          terminal_states_only = job.Proto.j_terminal_states_only;
          events = emit;
        }
    in
    let work, _carry = S.of_prefixes lcol v3 in
    let w = S.wstate () in
    let queue = ref (List.map Rounds.of_prefix work) in
    let deferred = ref [] in
    let run_item =
      Rounds.item_runner (module E) ~expand:(S.expand (module E) w) ~rp
        ~col:lcol ~emit
        ~push:(fun it -> queue := it :: !queue)
        ~defer:(fun it -> deferred := Strategy.prefix_of it :: !deferred)
        ()
    in
    let rec loop () =
      match !queue with
      | [] -> ()
      | it :: rest ->
        queue := rest;
        run_item it;
        loop ()
    in
    (match loop () with
    | () -> ()
    | exception Collector.Stop -> ()
      (* local collectors carry no limits, but a strategy may still raise *));
    let params =
      (S.to_prefixes ~wstates:[| w |] ~work:[] ~next:[]).Checkpoint.v3_params
    in
    Ok
      {
        Proto.r_params = params;
        r_snapshot = Collector.snapshot_to_json (Collector.snapshot lcol);
        r_deferred = List.rev !deferred;
        r_events = List.rev_map Icb_obs.Event.to_json !buf;
      }

let connect ~host ~port =
  match Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | [] -> Error (Printf.sprintf "cannot resolve %s:%d" host port)
  | ai :: _ -> (
    let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype 0 in
    match Unix.connect fd ai.Unix.ai_addr with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s:%d: %s" host port
           (Unix.error_message e)))

let recv_s2c ic =
  match Proto.recv ic with
  | Error `Closed -> Error "coordinator closed the connection"
  | Error (`Malformed m) -> Error ("protocol error: " ^ m)
  | Ok j -> Proto.s2c_of_json j

let run ?(cache = true) ~host ~port ~resolve () =
  let ( let* ) = Result.bind in
  let* fd = connect ~host ~port in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* hello until the coordinator has a job to describe *)
      let rec handshake () =
        Proto.send oc (Proto.c2s_to_json Proto.Hello);
        let* reply = recv_s2c ic in
        match reply with
        | Proto.Job job -> Ok job
        | Proto.Wait { ms } ->
          Unix.sleepf (float_of_int ms /. 1000.);
          handshake ()
        | Proto.Done -> Error "coordinator has no job for this worker"
        | _ -> Error "protocol error: expected a job"
      in
      let* job = handshake () in
      let* (Packed (module E)) = resolve job.Proto.j_meta in
      let fp = Rounds.fingerprint (module E) in
      let* () =
        if fp <> job.Proto.j_root_sig then
          Error
            "the job belongs to a different program (initial-state \
             fingerprint mismatch)"
        else Ok ()
      in
      (* the replay cache persists across batches: consecutive batches of
         a sorted frontier share schedule prefixes *)
      let rp =
        Search_core.replayer
          (module E)
          ~cache:(cache && job.Proto.j_cache) ()
      in
      let epoch = Unix.gettimeofday () in
      let clock () = Unix.gettimeofday () -. epoch in
      let rec serve batches =
        Proto.send oc (Proto.c2s_to_json Proto.Request);
        let* reply = recv_s2c ic in
        match reply with
        | Proto.Batch b ->
          let* report = process_batch (module E) ~rp ~job ~clock b in
          Proto.send oc
            (Proto.c2s_to_json
               (Proto.Result { lease = b.Proto.b_lease; report }));
          let* ack = recv_s2c ic in
          (match ack with
          | Proto.Accepted | Proto.Stale -> serve (batches + 1)
          | _ -> Error "protocol error: expected an accept/stale ack")
        | Proto.Wait { ms } ->
          Unix.sleepf (float_of_int ms /. 1000.);
          serve batches
        | Proto.Done -> Ok batches
        | _ -> Error "protocol error: expected batch/wait/done"
      in
      serve 0)
