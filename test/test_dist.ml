(* The distributed coordinator/worker pair: exact equivalence with the
   serial search for every shardable strategy, lease re-issue after a
   worker dies mid-batch, stale-report rejection, coordinator
   interrupt/resume through its checkpoint, limit parity with the
   in-process domains, and the HTTP observability endpoints — all over
   real loopback sockets. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Strategy = Icb_search.Strategy
module Coord = Icb_dist.Coord
module Worker = Icb_dist.Worker
module Proto = Icb_dist.Proto
module Json = Icb_obs.Json
module Telemetry = Icb_obs.Telemetry
module Metrics = Icb_obs.Metrics

let check = Alcotest.check

let prog () =
  Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set

let bug_set (r : Sresult.t) =
  List.sort compare
    (List.map
       (fun (b : Sresult.bug) -> (b.Sresult.key, b.Sresult.preemptions))
       r.Sresult.bugs)

let bexec (r : Sresult.t) = Array.to_list r.Sresult.bound_executions

let assert_equivalent what (s : Sresult.t) (d : Sresult.t) =
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    (what ^ ": bug set") (bug_set s) (bug_set d);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    (what ^ ": executions per bound") (bexec s) (bexec d);
  check Alcotest.int (what ^ ": executions") s.Sresult.executions
    d.Sresult.executions;
  check Alcotest.int (what ^ ": states") s.Sresult.distinct_states
    d.Sresult.distinct_states;
  check Alcotest.int (what ^ ": steps") s.Sresult.total_steps
    d.Sresult.total_steps;
  check Alcotest.bool (what ^ ": complete") s.Sresult.complete
    d.Sresult.complete

let serial ?options p strategy = Icb.run ?options ~strategy p

let spawn_worker ~port p =
  Thread.create
    (fun () ->
      ignore
        (Worker.run ~host:"127.0.0.1" ~port
           ~resolve:(fun _ -> Ok (Worker.Packed (Icb.engine p)))
           ()))
    ()

(* Coordinator in this thread, [workers] in-process worker threads over
   loopback.  [keep] leaves the port up (and skips shutdown) so a test
   can poke the HTTP endpoints after the run. *)
let distributed ?(workers = 2) ?(batch_size = 4) ?(lease_timeout = 5.0)
    ?options ?checkpoint_out ?resume_from ?(keep = false) p strategy =
  let coord = Coord.create ~batch_size ~lease_timeout () in
  let port = Coord.port coord in
  let ws = List.init workers (fun _ -> spawn_worker ~port p) in
  match
    Coord.run coord (Icb.engine p) ?options ?checkpoint_out ?resume_from
      ~env:(Strategy.env_of_prog p)
      strategy
  with
  | r ->
    List.iter Thread.join ws;
    if not keep then Coord.shutdown coord;
    (r, coord)
  | exception e ->
    Coord.shutdown coord;
    raise e

let dist_metric coord name =
  let tel = Coord.telemetry coord in
  Telemetry.locked tel (fun () ->
      Option.value (Metrics.find (Telemetry.metrics tel) name) ~default:0.0)

(* --- exact equivalence, registry-driven ----------------------------------- *)

(* Every unbounded shardable strategy must produce identical results
   (bug set, per-bound execution counts, states, steps, completeness)
   distributed over workers vs serially; driving the cases off the
   registry keeps newly added strategies covered.  The registry's
   instances carry [cache = false]: as with the in-process parallel
   driver, per-worker seen-caches prune differently and only the
   uncached search is batch-for-batch exact. *)
let equivalence_case (r : Explore.registered) =
  Alcotest.test_case r.Explore.reg_name `Quick (fun () ->
      let p = prog () in
      let s = serial p r.Explore.reg_strategy in
      let d2, _ = distributed p r.Explore.reg_strategy in
      assert_equivalent "2 workers vs serial" s d2;
      let d1, _ = distributed ~workers:1 p r.Explore.reg_strategy in
      assert_equivalent "1 worker vs serial" s d1)

(* The bounded strategies (random, pct) never exhaust their space, and
   the coordinator enforces limits at batch granularity — so an
   execution cap is a lower bound, not an exact count.  What must hold:
   a single-worker run is deterministic (the one worker drains batches
   in id order, so the stop lands after the same batch every time), and
   the cap actually stops the run. *)
let bounded_case (r : Explore.registered) =
  Alcotest.test_case r.Explore.reg_name `Quick (fun () ->
      let p = prog () in
      let options =
        { Collector.default_options with Collector.max_executions = Some 200 }
      in
      let a, _ = distributed ~workers:1 p r.Explore.reg_strategy ~options in
      let b, _ = distributed ~workers:1 p r.Explore.reg_strategy ~options in
      check Alcotest.bool
        (r.Explore.reg_name ^ ": hit the execution cap")
        true
        (a.Sresult.stop_reason = Some Sresult.Execution_limit
        && a.Sresult.executions >= 200);
      assert_equivalent "single-worker determinism" a b)

let equivalence_tests =
  List.filter_map
    (fun (r : Explore.registered) ->
      if not (r.Explore.reg_shardable && r.Explore.reg_checkpointable) then
        None
      else if r.Explore.reg_bounded then Some (bounded_case r)
      else Some (equivalence_case r))
    (Explore.registry ~seed:11L ())

let transaction_tests =
  [
    Alcotest.test_case "transaction manager: 2 workers vs serial" `Quick
      (fun () ->
        let p =
          Icb_models.Transaction.program Icb_models.Transaction.Bug_stale_entry
        in
        let strategy = Explore.Icb { max_bound = Some 2; cache = false } in
        let s = serial p strategy in
        check Alcotest.bool "the serial run finds the stale-entry bug" true
          (s.Sresult.bugs <> []);
        let d, _ = distributed p strategy in
        assert_equivalent "2 workers vs serial" s d);
  ]

(* --- a raw protocol client, for misbehaving on purpose --------------------- *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  (fd, ic, oc)

let rpc ic oc msg =
  Proto.send oc (Proto.c2s_to_json msg);
  match Proto.recv ic with
  | Ok j -> (
    match Proto.s2c_of_json j with
    | Ok reply -> reply
    | Error m -> Alcotest.failf "undecodable server message: %s" m)
  | Error `Closed -> Alcotest.fail "the coordinator closed the connection"
  | Error (`Malformed m) -> Alcotest.failf "malformed frame: %s" m

let rec wait_for_job ic oc =
  match rpc ic oc Proto.Hello with
  | Proto.Job j -> j
  | Proto.Wait { ms } ->
    Unix.sleepf (float_of_int ms /. 1000.);
    wait_for_job ic oc
  | _ -> Alcotest.fail "expected Job or Wait after Hello"

let rec lease_batch ic oc =
  match rpc ic oc Proto.Request with
  | Proto.Batch b -> b
  | Proto.Wait { ms } ->
    Unix.sleepf (float_of_int ms /. 1000.);
    lease_batch ic oc
  | _ -> Alcotest.fail "expected Batch or Wait after Request"

(* Run the coordinator on a background thread so the test thread can
   play the client side deterministically. *)
let coord_in_background coord p strategy =
  let cell = ref None in
  let th =
    Thread.create
      (fun () ->
        cell :=
          Some
            (Coord.run coord (Icb.engine p)
               ~env:(Strategy.env_of_prog p)
               strategy))
      ()
  in
  fun () ->
    Thread.join th;
    match !cell with
    | Some r -> r
    | None -> Alcotest.fail "the coordinator run raised"

let lease_tests =
  [
    (* A worker killed mid-batch: lease round 0's only batch on a raw
       connection, drop the connection without reporting.  The
       coordinator must void the lease on disconnect, re-issue the
       batch, and the final result must still be exactly serial. *)
    Alcotest.test_case "a killed worker's lease is re-issued" `Quick
      (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let s = serial p strategy in
        let coord = Coord.create ~batch_size:1 ~lease_timeout:30.0 () in
        let port = Coord.port coord in
        let finish = coord_in_background coord p strategy in
        let fd, ic, oc = raw_connect port in
        let _job = wait_for_job ic oc in
        let b = lease_batch ic oc in
        check Alcotest.int "round 0 starts at batch 0" 0 b.Proto.b_id;
        (* die holding the lease *)
        Unix.close fd;
        let w = spawn_worker ~port p in
        let d = finish () in
        Thread.join w;
        check Alcotest.bool "the re-issue was counted" true
          (dist_metric coord "icb_dist_leases_reissued" >= 1.0);
        Coord.shutdown coord;
        assert_equivalent "after a mid-batch worker kill" s d);
    (* A zombie worker: its lease expires (it never disconnects, just
       stalls), the batch is re-issued, and its late report must be
       answered [Stale] and never double-counted. *)
    Alcotest.test_case "a late report on an expired lease is Stale" `Quick
      (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let s = serial p strategy in
        let coord = Coord.create ~batch_size:1 ~lease_timeout:0.2 () in
        let port = Coord.port coord in
        let finish = coord_in_background coord p strategy in
        let fd, ic, oc = raw_connect port in
        let _job = wait_for_job ic oc in
        let b = lease_batch ic oc in
        (* stall past the lease timeout; the ticker reclaims the batch *)
        Unix.sleepf 0.6;
        let report =
          {
            Proto.r_params = b.Proto.b_params;
            r_snapshot =
              Collector.snapshot_to_json
                (Collector.snapshot
                   (Collector.create Collector.default_options));
            r_deferred = [];
            r_events = [];
          }
        in
        (match rpc ic oc (Proto.Result { lease = b.Proto.b_lease; report })
         with
        | Proto.Stale -> ()
        | _ -> Alcotest.fail "expected Stale for the expired lease");
        Unix.close fd;
        let w = spawn_worker ~port p in
        let d = finish () in
        Thread.join w;
        check Alcotest.bool "the expiry was counted as a re-issue" true
          (dist_metric coord "icb_dist_leases_reissued" >= 1.0);
        check Alcotest.bool "the stale report was counted" true
          (dist_metric coord "icb_dist_stale_reports" >= 1.0);
        Coord.shutdown coord;
        assert_equivalent "the zombie never double-counts" s d);
  ]

(* --- coordinator interrupt/resume ------------------------------------------ *)

let resume_tests =
  [
    (* The execution cap is the deterministic stand-in for kill -9: the
       checkpoint on disk is exactly what a killed coordinator leaves
       behind (absorbed batches in the collector, unabsorbed ones in the
       work list).  Resuming on a fresh coordinator — new port, new
       workers — must land on the full serial result. *)
    Alcotest.test_case "an interrupted coordinator resumes exactly" `Quick
      (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let full = serial p strategy in
        let cap = max 1 (full.Sresult.executions / 2) in
        let path = Filename.temp_file "icb-dist" ".ckpt" in
        let killed, _ =
          distributed p strategy ~checkpoint_out:path
            ~options:
              {
                Collector.default_options with
                Collector.max_executions = Some cap;
              }
        in
        check Alcotest.bool "was interrupted" true
          (killed.Sresult.stop_reason = Some Sresult.Execution_limit);
        let resumed, _ =
          distributed p strategy ~resume_from:(Checkpoint.load path)
        in
        Sys.remove path;
        assert_equivalent "kill + distributed resume vs uninterrupted serial"
          full resumed);
    (* The same checkpoint must also resume serially: the distributed
       and serial drivers share one checkpoint format. *)
    Alcotest.test_case "a serial resume reads a distributed checkpoint"
      `Quick (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let full = serial p strategy in
        let cap = max 1 (full.Sresult.executions / 2) in
        let path = Filename.temp_file "icb-dist" ".ckpt" in
        let killed, _ =
          distributed p strategy ~checkpoint_out:path
            ~options:
              {
                Collector.default_options with
                Collector.max_executions = Some cap;
              }
        in
        check Alcotest.bool "was interrupted" true
          (killed.Sresult.stop_reason <> None);
        let resumed = Icb.resume p (Checkpoint.load path) in
        Sys.remove path;
        assert_equivalent "kill + serial resume vs uninterrupted serial" full
          resumed);
  ]

(* --- limit parity: domains vs TCP workers ---------------------------------- *)

(* The in-process domains and the TCP workers run the same round core, so
   every limit must stop both for the same recorded reason.  A count
   limit's checkpoint from either must also resume serially to the
   uninterrupted run's executions and bugs. *)
let limit_parity_case name ~expect ~resumes options_of =
  Alcotest.test_case name `Quick (fun () ->
      let p = prog () in
      let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
      let full = serial p strategy in
      let options = options_of full in
      let par_path = Filename.temp_file "icb-dist" ".ckpt" in
      let par =
        Icb_search.Parallel.run
          (fun _ -> Icb.engine p)
          ~options ~checkpoint_out:par_path ~domains:2 ~max_bound:(Some 3)
          ~cache:false ()
      in
      let dist_path = Filename.temp_file "icb-dist" ".ckpt" in
      let dist, _ =
        distributed ~workers:1 p strategy ~options ~checkpoint_out:dist_path
      in
      let reason (r : Sresult.t) =
        Option.fold ~none:"none" ~some:Sresult.stop_reason_string
          r.Sresult.stop_reason
      in
      check Alcotest.string "domains stop reason"
        (Sresult.stop_reason_string expect)
        (reason par);
      check Alcotest.string "TCP stop reason" (reason par) (reason dist);
      if resumes then
        List.iter
          (fun (what, path) ->
            let resumed = Icb.resume p (Checkpoint.load path) in
            check Alcotest.int (what ^ " checkpoint: executions")
              full.Sresult.executions resumed.Sresult.executions;
            check
              (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
              (what ^ " checkpoint: bugs") (bug_set full) (bug_set resumed))
          [ ("domains", par_path); ("TCP", dist_path) ];
      Sys.remove par_path;
      Sys.remove dist_path)

let limit_tests =
  [
    limit_parity_case "max_states" ~expect:Sresult.State_limit ~resumes:true
      (fun full ->
        {
          Collector.default_options with
          Collector.max_states = Some (full.Sresult.distinct_states / 2);
        });
    limit_parity_case "max_total_steps" ~expect:Sresult.Step_limit
      ~resumes:true (fun full ->
        {
          Collector.default_options with
          Collector.max_total_steps = Some (full.Sresult.total_steps / 2);
        });
    limit_parity_case "stop_at_first_bug" ~expect:Sresult.First_bug
      ~resumes:false (fun full ->
        check Alcotest.bool "the model is buggy" true (full.Sresult.bugs <> []);
        { Collector.default_options with Collector.stop_at_first_bug = true });
  ]

(* --- HTTP endpoints on the protocol port ----------------------------------- *)

let http_get port path =
  let fd, ic, oc = raw_connect port in
  output_string oc
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path);
  flush oc;
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Buffer.contents buf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let http_tests =
  [
    Alcotest.test_case "/metrics and /status share the protocol port" `Quick
      (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let d, coord = distributed p strategy ~keep:true in
        let port = Coord.port coord in
        let metrics = http_get port "/metrics" in
        let status = http_get port "/status" in
        let missing = http_get port "/nope" in
        check Alcotest.bool "batches were completed" true
          (dist_metric coord "icb_dist_batches_completed" >= 1.0);
        Coord.shutdown coord;
        check Alcotest.bool "200 on /metrics" true
          (contains metrics "HTTP/1.1 200 OK");
        check Alcotest.bool "coordinator metrics in prometheus exposition"
          true
          (contains metrics "icb_dist_batches_completed");
        check Alcotest.bool "search metrics projected too" true
          (contains metrics "icb_executions_total");
        check Alcotest.bool "/status is json with a phase" true
          (contains status "\"phase\"" && contains status "finished");
        check Alcotest.bool "404 on unknown paths" true
          (contains missing "404");
        check Alcotest.bool "the served run still found the bug" true
          (d.Sresult.bugs <> []));
  ]

(* --- wire encoding --------------------------------------------------------- *)

let proto_tests =
  [
    Alcotest.test_case "protocol messages survive a json round trip" `Quick
      (fun () ->
        let c2s =
          [
            Proto.Hello;
            Proto.Request;
            Proto.Result
              {
                lease = 7;
                report =
                  {
                    Proto.r_params =
                      [ ("max_bound", "3"); ("cache", "false") ];
                    r_snapshot = Json.Obj [ ("x", Json.Int 1) ];
                    r_deferred = [ ([ 0; 1; 2 ], 1); ([], 0) ];
                    r_events = [ Json.String "e" ];
                  };
              };
          ]
        in
        List.iter
          (fun m ->
            match
              Proto.c2s_of_json
                (Json.parse (Json.to_string (Proto.c2s_to_json m)))
            with
            | Ok m' -> check Alcotest.bool "c2s round trip" true (m = m')
            | Error e -> Alcotest.fail e)
          c2s;
        let s2c =
          [
            Proto.Job
              {
                Proto.j_meta = [ ("kind", "model"); ("target", "peterson") ];
                j_root_sig = "abc/3/010";
                j_deadlock_is_error = true;
                j_terminal_states_only = false;
                j_cache = true;
                j_worker = 4;
              };
            Proto.Batch
              {
                Proto.b_lease = 9;
                b_id = 2;
                b_tag = "icb";
                b_params = [ ("cache", "false") ];
                b_round = 1;
                b_items = [ ([ 1; 2 ], 0); ([], -1) ];
              };
            Proto.Wait { ms = 50 };
            Proto.Done;
            Proto.Accepted;
            Proto.Stale;
          ]
        in
        List.iter
          (fun m ->
            match
              Proto.s2c_of_json
                (Json.parse (Json.to_string (Proto.s2c_to_json m)))
            with
            | Ok m' -> check Alcotest.bool "s2c round trip" true (m = m')
            | Error e -> Alcotest.fail e)
          s2c);
    Alcotest.test_case "a collector snapshot survives the wire" `Quick
      (fun () ->
        let col = Collector.create Collector.default_options in
        let snap = Collector.snapshot col in
        match Collector.snapshot_of_json (Collector.snapshot_to_json snap) with
        | Error e -> Alcotest.fail e
        | Ok snap' ->
          check Alcotest.int "executions"
            (Collector.snapshot_executions snap)
            (Collector.snapshot_executions snap');
          check Alcotest.int "states"
            (Collector.snapshot_states snap)
            (Collector.snapshot_states snap'));
  ]

let () =
  Alcotest.run "dist"
    [
      ("equivalence", equivalence_tests);
      ("transaction", transaction_tests);
      ("leases", lease_tests);
      ("resume", resume_tests);
      ("limits", limit_tests);
      ("http", http_tests);
      ("proto", proto_tests);
    ]
