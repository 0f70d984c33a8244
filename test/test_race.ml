module Vclock = Icb_race.Vclock
module Vcdetect = Icb_race.Vcdetect
module Goldilocks = Icb_race.Goldilocks
module Hbsig = Icb_race.Hbsig
module Interp = Icb_machine.Interp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- vector clocks -------------------------------------------------------- *)

let clock_gen =
  QCheck.Gen.(
    map
      (fun l ->
        List.fold_left
          (fun c (t, n) -> Vclock.set c t n)
          Vclock.empty l)
      (list_size (int_range 0 6) (pair (int_range 0 5) (int_range 0 10))))

let clock = QCheck.make clock_gen

let vclock_tests =
  [
    Alcotest.test_case "get of empty is zero" `Quick (fun () ->
        check Alcotest.int "zero" 0 (Vclock.get Vclock.empty 3));
    Alcotest.test_case "inc bumps one component" `Quick (fun () ->
        let c = Vclock.inc (Vclock.inc Vclock.empty 2) 2 in
        check Alcotest.int "two" 2 (Vclock.get c 2);
        check Alcotest.int "others zero" 0 (Vclock.get c 0));
    Alcotest.test_case "trailing zeros do not matter" `Quick (fun () ->
        let c = Vclock.set (Vclock.inc Vclock.empty 1) 4 7 in
        let zeroed = Vclock.set c 4 0 in
        let plain = Vclock.inc Vclock.empty 1 in
        check Alcotest.bool "equal" true (Vclock.equal zeroed plain);
        check Alcotest.int "compare" 0 (Vclock.compare zeroed plain);
        check Alcotest.int "compare, flipped" 0 (Vclock.compare plain zeroed);
        check Alcotest.bool "leq both ways" true
          (Vclock.leq zeroed plain && Vclock.leq plain zeroed);
        let all_zero = Vclock.set (Vclock.set Vclock.empty 3 5) 3 0 in
        check Alcotest.bool "all-zero equals empty" true
          (Vclock.equal all_zero Vclock.empty);
        check Alcotest.int "all-zero compares as empty" 0
          (Vclock.compare Vclock.empty all_zero);
        check Alcotest.string "printed without zeros" "{1:1}"
          (Format.asprintf "%a" Vclock.pp zeroed));
    Alcotest.test_case "join returns a dominating argument" `Quick (fun () ->
        let small = Vclock.inc Vclock.empty 0 in
        let big = Vclock.inc (Vclock.inc small 0) 2 in
        check Alcotest.bool "left dominates" true (Vclock.join big small == big);
        check Alcotest.bool "right dominates" true (Vclock.join small big == big);
        check Alcotest.bool "incomparable: a new clock" true
          (let other = Vclock.inc Vclock.empty 1 in
           let j = Vclock.join small other in
           j != small && j != other && Vclock.get j 0 = 1 && Vclock.get j 1 = 1));
    qtest
      (QCheck.Test.make ~name:"compare is consistent with equal" ~count:300
         (QCheck.pair clock clock) (fun (a, b) ->
           (Vclock.compare a b = 0) = Vclock.equal a b
           && Vclock.compare a b = - Vclock.compare b a));
    qtest
      (QCheck.Test.make ~name:"join is commutative" ~count:300
         (QCheck.pair clock clock) (fun (a, b) ->
           Vclock.equal (Vclock.join a b) (Vclock.join b a)));
    qtest
      (QCheck.Test.make ~name:"join is associative" ~count:300
         (QCheck.triple clock clock clock) (fun (a, b, c) ->
           Vclock.equal
             (Vclock.join a (Vclock.join b c))
             (Vclock.join (Vclock.join a b) c)));
    qtest
      (QCheck.Test.make ~name:"join is idempotent" ~count:300 clock (fun a ->
           Vclock.equal (Vclock.join a a) a));
    qtest
      (QCheck.Test.make ~name:"join is the least upper bound" ~count:300
         (QCheck.pair clock clock) (fun (a, b) ->
           let j = Vclock.join a b in
           Vclock.leq a j && Vclock.leq b j));
    qtest
      (QCheck.Test.make ~name:"leq is antisymmetric" ~count:300
         (QCheck.pair clock clock) (fun (a, b) ->
           (not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b));
    qtest
      (QCheck.Test.make ~name:"inc strictly increases" ~count:300
         (QCheck.pair clock (QCheck.make (QCheck.Gen.int_range 0 5)))
         (fun (a, t) ->
           let a' = Vclock.inc a t in
           Vclock.leq a a' && not (Vclock.leq a' a)));
  ]

(* --- detectors on hand-built event streams --------------------------------- *)

let v0 : Interp.var_id = Interp.Gvar (0, 0)
let l0 : Interp.var_id = Interp.Svar (0, 0)

let data ?(write = true) tid var : Interp.event = Interp.Ev_data { tid; var; write }
let sync tid var : Interp.event = Interp.Ev_sync { tid; var }
let fork parent child : Interp.event = Interp.Ev_fork { parent; child }

let vc_races events = Result.is_error (Vcdetect.observe Vcdetect.empty events)

let gold_races events =
  Result.is_error (Goldilocks.observe Goldilocks.empty events)

let both name expected events =
  Alcotest.test_case name `Quick (fun () ->
      check Alcotest.bool ("vclock: " ^ name) expected (vc_races events);
      check Alcotest.bool ("goldilocks: " ^ name) expected (gold_races events))

let detector_tests =
  [
    both "unsynchronized write-write races" true
      [ fork 0 1; data 0 v0; data 1 v0 ];
    both "read-read does not race" false
      [ fork 0 1; data ~write:false 0 v0; data ~write:false 1 v0 ];
    both "write then unsynchronized read races" true
      [ fork 0 1; data 0 v0; data ~write:false 1 v0 ];
    both "lock-ordered accesses do not race" false
      [
        fork 0 1;
        sync 0 l0; data 0 v0; sync 0 l0;  (* lock; write; unlock *)
        sync 1 l0; data 1 v0; sync 1 l0;
      ];
    both "distinct locks do not order" true
      [
        fork 0 1;
        sync 0 l0; data 0 v0; sync 0 l0;
        sync 1 (Interp.Svar (1, 0)); data 1 v0; sync 1 (Interp.Svar (1, 0));
      ];
    both "fork orders parent-before-child" false
      [ data 0 v0; fork 0 1; data 1 v0 ];
    both "no fork edge, no order" true [ fork 0 1; data 1 v0; data 0 v0 ];
    both "same thread never races with itself" false
      [ data 0 v0; data ~write:false 0 v0; data 0 v0 ];
    both "volatile-style sync accesses do not race" false
      [ fork 0 1; sync 0 v0; sync 1 v0 ];
    both "transitive publication through a chain" false
      [
        fork 0 1; fork 0 2;
        data 0 v0;
        sync 0 l0;
        sync 1 l0;
        sync 1 (Interp.Svar (1, 0));
        sync 2 (Interp.Svar (1, 0));
        data ~write:false 2 v0;
      ];
    both "read shared, then unsynchronized write races with the reader" true
      [
        fork 0 1;
        sync 0 l0; data ~write:false 0 v0; sync 0 l0;
        data 1 v0;
      ];
  ]

(* --- agreement of the two detectors on random structured streams ----------- *)

(* Streams are generated program-like: a bounded number of threads, each
   event either a data access, a lock-protected data access, or a sync
   access; forks happen up-front so every thread is reachable. *)
let stream_gen : Interp.event list QCheck.Gen.t =
  QCheck.Gen.(
    let nthreads = 3 in
    let event =
      int_range 0 (nthreads - 1) >>= fun tid ->
      frequency
        [
          ( 3,
            map2
              (fun v write -> [ data ~write tid (Interp.Gvar (v, 0)) ])
              (int_range 0 2) bool );
          ( 3,
            map3
              (fun l v write ->
                [
                  sync tid (Interp.Svar (l, 0));
                  data ~write tid (Interp.Gvar (v, 0));
                  sync tid (Interp.Svar (l, 0));
                ])
              (int_range 0 1) (int_range 0 2) bool );
          (2, map (fun l -> [ sync tid (Interp.Svar (l, 0)) ]) (int_range 0 1));
        ]
    in
    map
      (fun chunks -> [ fork 0 1; fork 0 2 ] @ List.concat chunks)
      (list_size (int_range 0 25) event))

let agreement_tests =
  [
    qtest
      (QCheck.Test.make ~name:"vclock and goldilocks agree" ~count:1000
         (QCheck.make stream_gen) (fun events ->
           vc_races events = gold_races events));
    qtest
      (QCheck.Test.make ~name:"detectors agree on the racing variable"
         ~count:1000 (QCheck.make stream_gen) (fun events ->
           match
             ( Vcdetect.observe Vcdetect.empty events,
               Goldilocks.observe Goldilocks.empty events )
           with
           | Ok _, Ok _ -> true
           | Error a, Error b -> a.Icb_race.Report.var = b.Icb_race.Report.var
           | Error _, Ok _ | Ok _, Error _ -> false));
    qtest
      (QCheck.Test.make ~name:"detection is stable under chunked observation"
         ~count:300 (QCheck.make stream_gen) (fun events ->
           (* feeding events one at a time gives the same verdict *)
           let one_shot = vc_races events in
           let incremental =
             let rec go det = function
               | [] -> false
               | e :: rest -> (
                 match Vcdetect.observe det [ e ] with
                 | Ok det -> go det rest
                 | Error _ -> true)
             in
             go Vcdetect.empty events
           in
           one_shot = incremental));
  ]

let verdict = function
  | Ok _ -> None
  | Error r -> Some (r.Icb_race.Report.var, r.Icb_race.Report.tid1, r.Icb_race.Report.tid2)

let persistence_tests =
  [
    qtest
      (QCheck.Test.make ~name:"vclock detector branches share a state safely"
         ~count:500
         (QCheck.make QCheck.Gen.(triple stream_gen stream_gen stream_gen))
         (fun (prefix, b1, b2) ->
           (* the report of a branch equals the one-shot report of the whole
              stream, whatever other branches were observed from the same
              retained state *)
           match Vcdetect.observe Vcdetect.empty prefix with
           | Error _ -> true
           | Ok base ->
             let first = verdict (Vcdetect.observe base b1) in
             ignore (Vcdetect.observe base b2);
             ignore (Vcdetect.observe base (List.rev b2));
             let again = verdict (Vcdetect.observe base b1) in
             first = again
             && first = verdict (Vcdetect.observe Vcdetect.empty (prefix @ b1))));
  ]

let var_gen =
  QCheck.Gen.(
    map3
      (fun k a b ->
        match k with
        | 0 -> Interp.Gvar (a, b)
        | 1 -> Interp.Hcell (a, b)
        | _ -> Interp.Svar (a, b))
      (int_range 0 2) (int_range (-3) 3) (int_range (-3) 3))

let var_order_tests =
  [
    qtest
      (QCheck.Test.make ~name:"compare_var_id orders like Stdlib.compare"
         ~count:1000
         (QCheck.make QCheck.Gen.(pair var_gen var_gen))
         (fun (a, b) ->
           Int.compare (Interp.compare_var_id a b) 0
           = Int.compare (Stdlib.compare a b) 0));
  ]

(* --- happens-before signatures --------------------------------------------- *)

let hb_sig events = Hbsig.signature (Hbsig.observe Hbsig.empty events)

let hbsig_tests =
  [
    Alcotest.test_case "reordering independent steps preserves the signature"
      `Quick (fun () ->
        let a = sync 1 (Interp.Svar (0, 0)) in
        let b = sync 2 (Interp.Svar (1, 0)) in
        check Alcotest.int64 "swap"
          (hb_sig [ fork 0 1; fork 0 2; a; b ])
          (hb_sig [ fork 0 1; fork 0 2; b; a ]));
    Alcotest.test_case "reordering dependent steps changes the signature"
      `Quick (fun () ->
        let a = sync 1 l0 in
        let b = sync 2 l0 in
        check Alcotest.bool "differ" true
          (hb_sig [ fork 0 1; fork 0 2; a; b ]
          <> hb_sig [ fork 0 1; fork 0 2; b; a ]));
    Alcotest.test_case "longer executions have new signatures" `Quick
      (fun () ->
        check Alcotest.bool "prefix differs" true
          (hb_sig [ sync 0 l0 ] <> hb_sig [ sync 0 l0; sync 0 l0 ]));
    Alcotest.test_case
      "machine: equivalent schedules of independent threads collide" `Quick
      (fun () ->
        (* two threads lock distinct mutexes: schedules that interleave them
           differently must produce the same HB signature at the end *)
        let prog =
          Icb.compile
            {|
mutex m1; mutex m2;
proc w1() { lock(m1); unlock(m1); }
proc w2() { lock(m2); unlock(m2); }
main { spawn w1(); spawn w2(); }
|}
        in
        let run schedule =
          let r = Interp.start Interp.Sync_only prog in
          let st = ref r.Interp.state in
          let hbs = ref (Hbsig.observe Hbsig.empty r.Interp.events) in
          List.iter
            (fun t ->
              let res = Interp.step Interp.Sync_only !st t in
              st := res.Interp.state;
              hbs := Hbsig.observe !hbs res.Interp.events)
            schedule;
          Hbsig.signature !hbs
        in
        check Alcotest.int64 "interleavings collide"
          (run [ 0; 0; 1; 2; 1; 2 ])
          (run [ 0; 0; 2; 1; 2; 1 ]));
  ]

(* --- golden happens-before signatures ---------------------------------------

   Checkpoints store visited-signature sets and the perfbench pins count
   distinct signatures, so the signature of a given event stream is a
   persisted value: these goldens must never change.  They were computed
   by the fold over per-variable and per-thread maps that the running sum
   replaced. *)

(* A deterministic pseudo-random stream over four threads and every kind of
   variable (a fixed LCG, independent of QCheck's seed). *)
let lcg_stream n =
  let x = ref 12345 in
  let next bound =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    (!x lsr 8) mod bound
  in
  (* every draw is bound by its own [let], so the stream does not depend
     on the order in which OCaml evaluates arguments *)
  let var () =
    let kind = next 3 in
    let a = next 5 in
    let b = next 2 in
    match kind with
    | 0 -> Interp.Gvar (a, b)
    | 1 -> Interp.Hcell (a, b)
    | _ -> Interp.Svar (a, 0)
  in
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      let tid = next 4 in
      let ev =
        match next 10 with
        | 0 -> fork tid (1 + next 6)
        | 1 ->
          let addr = next 5 in
          Interp.Ev_lifetime { tid; addr; freed = next 2 = 0 }
        | 2 | 3 | 4 ->
          let write = next 2 = 0 in
          data ~write tid (var ())
        | _ -> sync tid (var ())
      in
      go (ev :: acc) (n - 1)
  in
  go [] n

(* The signature after every prefix of [events], folded into one hash. *)
let hb_prefix_digest events =
  let _, acc =
    List.fold_left
      (fun (hbs, acc) e ->
        let hbs = Hbsig.observe hbs [ e ] in
        (hbs, Icb_util.Fnv.int64 acc (Hbsig.signature hbs)))
      (Hbsig.empty, Icb_util.Fnv.basis)
      events
  in
  acc

let golden_streams =
  [
    ("empty", []);
    ( "locked handoff",
      [
        fork 0 1; fork 0 2;
        sync 1 l0; data 1 v0; sync 1 l0;
        sync 2 l0; data ~write:false 2 v0; sync 2 l0;
      ] );
    ( "heap cells and lifetimes",
      [
        Interp.Ev_lifetime { tid = 0; addr = 3; freed = false };
        sync 0 (Interp.Hcell (3, 1));
        sync 0 (Interp.Gvar (2, 0));
        fork 0 1;
        sync 1 (Interp.Hcell (3, 1));
        Interp.Ev_lifetime { tid = 1; addr = 3; freed = true };
      ] );
    ("lcg 300", lcg_stream 300);
  ]

(* The signature recomputed from scratch, as a fold over every variable's
   sequence hash and every thread's operation count — what [Hbsig] keeps
   incrementally. *)
module Ref_sig = struct
  module Vmap = Map.Make (struct
    type t = Interp.var_id

    let compare = Stdlib.compare
  end)

  module Imap = Map.Make (Int)

  let signature events =
    let module Fnv = Icb_util.Fnv in
    let var_hash = ref Vmap.empty and ops = ref Imap.empty in
    let bump tid =
      let n = 1 + Option.value ~default:0 (Imap.find_opt tid !ops) in
      ops := Imap.add tid n !ops;
      n
    in
    let extend var tid =
      let n = bump tid in
      let prev =
        match Vmap.find_opt var !var_hash with
        | Some h -> h
        | None ->
          let k, a, b =
            match var with
            | Interp.Gvar (a, b) -> (0, a, b)
            | Interp.Hcell (a, b) -> (1, a, b)
            | Interp.Svar (a, b) -> (2, a, b)
          in
          Fnv.int (Fnv.int (Fnv.int Fnv.basis k) a) b
      in
      var_hash := Vmap.add var (Fnv.int (Fnv.int prev tid) n) !var_hash
    in
    List.iter
      (fun (ev : Interp.event) ->
        match ev with
        | Ev_sync { tid; var } -> extend var tid
        | Ev_data { tid; _ } | Ev_lifetime { tid; _ } -> ignore (bump tid)
        | Ev_fork { parent; child } ->
          extend (Interp.Svar (-1, child)) parent;
          extend (Interp.Svar (-1, child)) child)
      events;
    let acc =
      Vmap.fold (fun _ h acc -> Fnv.combine_commutative acc h) !var_hash 0L
    in
    Imap.fold
      (fun tid n acc ->
        Fnv.combine_commutative acc (Fnv.int (Fnv.int Fnv.basis tid) n))
      !ops acc
end

(* Random streams cut into random steps, with a thread population large
   enough to leave [Hbsig]'s small-thread caches. *)
let chunked_stream_gen =
  QCheck.Gen.(
    let event =
      int_range 0 19 >>= fun tid ->
      frequency
        [
          (4, map (fun v -> sync tid (Interp.Svar (v, 0))) (int_range 0 3));
          (2, map2 (fun a i -> sync tid (Interp.Hcell (a, i))) (int_range 0 2) (int_range 0 1));
          (2, map2 (fun v w -> data ~write:w tid (Interp.Gvar (v, 0))) (int_range 0 2) bool);
          (1, map (fun c -> fork tid c) (int_range 1 19));
          (1, map (fun a -> Interp.Ev_lifetime { tid; addr = a; freed = false }) (int_range 0 2));
        ]
    in
    list_size (int_range 0 12) (list_size (int_range 0 4) event))

let hbsig_property_tests =
  [
    qtest
      (QCheck.Test.make ~name:"incremental signature equals a full fold"
         ~count:500 (QCheck.make chunked_stream_gen) (fun steps ->
           let _, _, ok =
             List.fold_left
               (fun (hbs, seen, ok) step ->
                 let hbs = Hbsig.observe hbs step in
                 let seen = seen @ step in
                 (hbs, seen, ok && Hbsig.signature hbs = Ref_sig.signature seen))
               (Hbsig.empty, [], true) steps
           in
           ok));
    qtest
      (QCheck.Test.make ~name:"a retained state is unchanged by later steps"
         ~count:300
         (QCheck.make QCheck.Gen.(pair chunked_stream_gen chunked_stream_gen))
         (fun (a, b) ->
           (* branching from one state must not disturb it *)
           let base = List.fold_left Hbsig.observe Hbsig.empty a in
           let before = Hbsig.signature base in
           ignore (List.fold_left Hbsig.observe base b);
           ignore (List.fold_left Hbsig.observe base (List.rev b));
           Hbsig.signature base = before
           && Hbsig.signature (List.fold_left Hbsig.observe base b)
              = Ref_sig.signature (List.concat a @ List.concat b)));
  ]

let golden_hbsig_tests =
  List.map
    (fun ((name, events), (final, digest)) ->
      Alcotest.test_case name `Quick (fun () ->
          check Alcotest.int64 "final signature" final (hb_sig events);
          check Alcotest.int64 "every prefix" digest (hb_prefix_digest events)))
    (List.combine golden_streams
       [
         (0L, -3750763034362895579L);
         (4952390679710122284L, 4975602978828903992L);
         (3710470046813101197L, -8752195069003622246L);
         (-1926443826915730159L, 3599298799433092534L);
       ])

(* --- allocation-free scheduling queries of the CHESS runtime --------------- *)

module Api = Icb_chess.Api

(* Yielding threads around a lock, so yield-adjusted enabled sets, blocked
   threads and a deadlock (the main thread waits for one release too
   many) all occur. *)
let yield_body () =
  let m = Api.Mutex.create () in
  let x = Api.Shared.make 0 in
  let done_ = Api.Semaphore.create 0 in
  for _ = 1 to 2 do
    Api.spawn (fun () ->
        for _ = 1 to 2 do
          Api.yield ();
          Api.Mutex.with_lock m (fun () ->
              Api.Shared.set x (Api.Shared.get x + 1))
        done;
        Api.Semaphore.release done_)
  done;
  Api.yield ();
  for _ = 1 to 3 do
    Api.Semaphore.acquire done_
  done

(* The yield-adjusted enabled set by its definition: the enabled threads
   that did not just yield, unless that leaves none. *)
let ref_enabled r =
  let raw = Api.Run.enabled_raw r in
  match List.filter (fun t -> not (Api.Run.yielded r t)) raw with
  | [] -> raw
  | awake -> awake

(* Walk [body] along the schedule [choices] picks (an index into the
   enabled list at each step), checking the list-free queries against
   their list-building definitions at every point. *)
let queries_agree body choices =
  let r = Api.Run.create body in
  let agree () =
    let enabled = ref_enabled r and status = Api.Run.status r in
    let n = Api.Run.thread_count r in
    List.for_all
      (fun t -> Api.Run.is_enabled r t = List.mem t enabled)
      (List.init (n + 2) (fun i -> i - 1))
    && Api.Run.running r = (status = Api.Run.Running)
    && Api.Run.running r = (Api.Run.enabled_raw r <> [])
    && Api.Run.enabled r = enabled
    && Api.Run.scan r = (enabled, status)
  in
  let rec go = function
    | [] -> agree ()
    | c :: rest -> (
      agree ()
      &&
      match Api.Run.enabled r with
      | [] -> true
      | en ->
        ignore (Api.Run.step r (List.nth en (c mod List.length en)));
        go rest)
  in
  go choices

let choices = QCheck.(list_of_size Gen.(int_range 0 60) (int_bound 7))

let run_query_tests =
  [
    Alcotest.test_case "is_enabled and running do not allocate" `Quick
      (fun () ->
        let r = Api.Run.create yield_body in
        (* into the yielding phase, with blocked and yielded threads *)
        for _ = 1 to 6 do
          match Api.Run.enabled r with
          | t :: _ -> ignore (Api.Run.step r t)
          | [] -> ()
        done;
        let w0 = Gc.minor_words () in
        let hits = ref 0 in
        for _ = 1 to 1000 do
          for t = -1 to 4 do
            if Api.Run.is_enabled r t then incr hits
          done;
          if Api.Run.running r then incr hits
        done;
        let words = Gc.minor_words () -. w0 in
        check Alcotest.bool "some thread enabled" true (!hits > 0);
        check Alcotest.bool
          (Printf.sprintf "%.0f words for 7000 queries" words)
          true (words < 100.));
    qtest
      (QCheck.Test.make ~name:"msqueue: is_enabled, running and scan agree"
         ~count:300 choices (queries_agree Test_support.Chess_bodies.msqueue));
    qtest
      (QCheck.Test.make ~name:"yields: is_enabled, running and scan agree"
         ~count:300 choices (queries_agree yield_body));
  ]

(* --- end-to-end: race checking inside the search --------------------------- *)

let search_race_tests =
  [
    Alcotest.test_case "racy model is caught under Sync_only" `Quick (fun () ->
        let prog =
          Icb.compile
            {|
var g: int;
event manual d1; event manual d2;
proc w1() { g = 1; signal(d1); }
proc w2() { g = 2; signal(d2); }
main { spawn w1(); spawn w2(); wait(d1); wait(d2); }
|}
        in
        match Icb.check prog ~max_bound:2 with
        | Some b ->
          check Alcotest.bool "is a race" true
            (String.length b.Icb_search.Sresult.key >= 5
            && String.sub b.key 0 5 = "race:")
        | None -> Alcotest.fail "expected a race");
    Alcotest.test_case "goldilocks config finds the same race" `Quick
      (fun () ->
        let prog =
          Icb.compile
            {|
var g: int;
event manual d1; event manual d2;
proc w1() { g = 1; signal(d1); }
proc w2() { g = 2; signal(d2); }
main { spawn w1(); spawn w2(); wait(d1); wait(d2); }
|}
        in
        let config =
          { Icb_search.Mach_engine.default_config with detector = `Goldilocks }
        in
        match Icb.check ~config prog ~max_bound:2 with
        | Some b ->
          check Alcotest.bool "is a race" true
            (String.sub b.Icb_search.Sresult.key 0 5 = "race:")
        | None -> Alcotest.fail "expected a race");
    Alcotest.test_case "lock-protected model is race-free" `Quick (fun () ->
        let prog =
          Icb.compile
            {|
var g: int;
mutex m;
event manual d1; event manual d2;
proc w1() { lock(m); g = 1; unlock(m); signal(d1); }
proc w2() { lock(m); g = 2; unlock(m); signal(d2); }
main { spawn w1(); spawn w2(); wait(d1); wait(d2); }
|}
        in
        check Alcotest.bool "clean" true (Icb.check prog ~max_bound:5 = None));
  ]

let () =
  Alcotest.run "race"
    [
      ("vclock", vclock_tests);
      ("detectors", detector_tests);
      ("agreement", agreement_tests);
      ("persist", persistence_tests);
      ("varorder", var_order_tests);
      ("hbsig", hbsig_tests);
      ("hbgolden", golden_hbsig_tests);
      ("hbincr", hbsig_property_tests);
      ("runquery", run_query_tests);
      ("search", search_race_tests);
    ]
