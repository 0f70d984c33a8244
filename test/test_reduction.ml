(* Empirical validation of the paper's Section 3.1 / Appendix A theory.

   Theorem 2: every terminating race-free execution is equivalent to an
   observable one (preemptions only at synchronization accesses) with no
   more preemptions.  Theorem 3: likewise for races.  Together they make
   the sync-only reduction sound: exploring only observable executions
   (while checking each for races) misses neither reachable terminal
   states nor bugs, and preserves minimal preemption counts.

   We test this differentially on generated programs: enumerate the full
   state space at both granularities and compare (a) terminal
   canonical-state sets, (b) bug-key sets, (c) the minimal preemption
   count per bug key — whenever the program is race-free.  When the
   sync-only checker reports a race, the comparison is skipped: the
   reduction promises nothing beyond the race report. *)

module Engine = Icb_search.Engine
module Mach_engine = Icb_search.Mach_engine

let qtest = QCheck_alcotest.to_alcotest

(* --- a generator of small two-worker programs ---------------------------- *)

module Gen = struct
  open QCheck.Gen

  (* Actions over a fixed vocabulary: two data globals, one volatile, two
     mutexes, one manual event.  Locked blocks keep lock usage
     well-formed; bare data ops make races (and hence skipped comparisons)
     possible but not dominant. *)
  (* each generated temporary gets a fresh name: locals are block-scoped
     with shadowing disallowed *)
  let temp_counter = ref 0

  let fresh_temp () =
    incr temp_counter;
    Printf.sprintf "t%d" !temp_counter

  let action =
    frequency
      [
        ( 4,
          map2
            (fun m d ->
              Printf.sprintf
                "  lock(m%d);\n  d%d = d%d + 1;\n  unlock(m%d);\n" m d d m)
            (int_range 0 1) (int_range 0 1) );
        ( 2,
          map
            (fun d -> Printf.sprintf "  d%d = d%d + 2;\n" d d)
            (int_range 0 1) );
        ( 2,
          map
            (fun () ->
              let t = fresh_temp () in
              Printf.sprintf "  var %s: int;\n  %s = fetch_add(v, 1);\n" t t)
            unit );
        (1, return "  signal(ev);\n");
        (1, return "  wait(ev);\n");
        (1, return "  yield;\n");
        ( 1,
          map
            (fun d ->
              let a = fresh_temp () in
              Printf.sprintf
                "  atomic {\n    var %s: int = d%d;\n    d%d = %s + 3;\n  }\n" a
                d d a)
            (int_range 0 1) );
        ( 1,
          map
            (fun d ->
              let c = fresh_temp () in
              Printf.sprintf
                "  var %s: int;\n  lock(m0);\n  %s = d%d;\n  unlock(m0);\n\
                 \  assert(%s < 9, \"counter overflow\");\n"
                c c d c)
            (int_range 0 1) );
      ]

  let body = map (String.concat "") (list_size (int_range 1 3) action)

  let program =
    map2
      (fun b1 b2 ->
        Printf.sprintf
          {|
var d0: int;
var d1: int;
volatile var v: int = 0;
mutex m0;
mutex m1;
event manual ev;

proc w1() {
%s}

proc w2() {
%s}

main {
  spawn w1();
  spawn w2();
}
|}
          b1 b2)
      body body
end

(* --- exhaustive exploration at a given granularity ------------------------ *)

type summary = {
  terminals : (int64, unit) Hashtbl.t;       (* canonical terminal states *)
  bug_bounds : (string, int) Hashtbl.t;      (* bug key -> min preemptions *)
  mutable raced : bool;
}

let explore config prog =
  let module E = (val Icb.engine ~config prog) in
  let s =
    { terminals = Hashtbl.create 64; bug_bounds = Hashtbl.create 4; raced = false }
  in
  let record_bug key preempt =
    match Hashtbl.find_opt s.bug_bounds key with
    | Some old -> if preempt < old then Hashtbl.replace s.bug_bounds key preempt
    | None -> Hashtbl.add s.bug_bounds key preempt
  in
  let rec dfs st =
    match E.status st with
    | Engine.Running -> List.iter (fun t -> dfs (E.step st t)) (E.enabled st)
    | Engine.Terminated ->
      Hashtbl.replace s.terminals
        (Icb_machine.State.signature (Mach_engine.machine_state st))
        ()
    | Engine.Deadlock _ ->
      Hashtbl.replace s.terminals
        (Icb_machine.State.signature (Mach_engine.machine_state st))
        ();
      record_bug "deadlock" (E.preemptions st)
    | Engine.Failed { key; _ } ->
      if String.length key >= 5 && String.sub key 0 5 = "race:" then
        s.raced <- true
      else record_bug key (E.preemptions st)
  in
  dfs (E.initial ());
  s

let sets_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem b k) a true

let tables_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc -> acc && Hashtbl.find_opt b k = Some v)
       a true

let fine_config =
  (* every shared access a scheduling point; race checking on so raced
     programs are identified and skipped symmetrically *)
  { Mach_engine.zing_config with check_races = true; detector = `Vclock }

let coarse_config = Mach_engine.default_config

let pp_table fmt t =
  Hashtbl.iter (fun k v -> Format.fprintf fmt "%s->%d " k v) t

let reduction_holds src =
  let prog = Icb.compile src in
  let fine = explore fine_config prog in
  let coarse = explore coarse_config prog in
  (* a race voids the comparison — but both granularities must
     agree that there is one (race detection is about the
     happens-before relation, not the schedule granularity) *)
  if fine.raced || coarse.raced then fine.raced = coarse.raced
  else if not (sets_equal fine.terminals coarse.terminals) then
    QCheck.Test.fail_reportf
      "terminal sets differ (%d fine vs %d coarse) on:%s"
      (Hashtbl.length fine.terminals)
      (Hashtbl.length coarse.terminals)
      src
  else if not (tables_equal fine.bug_bounds coarse.bug_bounds) then
    QCheck.Test.fail_reportf
      "bug bounds differ (fine: %a; coarse: %a) on:%s"
      pp_table fine.bug_bounds pp_table coarse.bug_bounds src
  else true

(* Two programs the generator produced (under QCHECK_SEED=391540289 and
   QCHECK_SEED=1) back when any step cleared yield flags.  A data access
   is a step of its own at fine granularity only, so the granularities
   hid a yielding thread for different stretches: in the first, w2's
   flag survived to the deadlocked terminal state at one granularity and
   not the other; in the second, fine granularity let w2 take m1 before
   w1, an order coarse granularity never reached. *)
let yield_regressions =
  [
    ( "yield flag on a deadlocked terminal state",
      {|
var d0: int;
var d1: int;
volatile var v: int = 0;
mutex m0;
mutex m1;
event manual ev;

proc w1() {
  var t33: int;
  t33 = fetch_add(v, 1);
  d0 = d0 + 2;
}

proc w2() {
  var t32: int;
  t32 = fetch_add(v, 1);
  yield;
  wait(ev);
}

main {
  spawn w1();
  spawn w2();
}
|} );
    ( "yield hides a thread across a data access",
      {|
var d0: int;
var d1: int;
volatile var v: int = 0;
mutex m0;
mutex m1;
event manual ev;

proc w1() {
  d0 = d0 + 2;
  lock(m1);
  d1 = d1 + 1;
  unlock(m1);
  d0 = d0 + 2;
}

proc w2() {
  yield;
  lock(m1);
  d1 = d1 + 1;
  unlock(m1);
  var t53: int;
  t53 = fetch_add(v, 1);
}

main {
  spawn w1();
  spawn w2();
}
|} );
  ]

let reduction_tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check bool) "reduction holds" true (reduction_holds src)))
    yield_regressions
  @ [
    qtest
      (QCheck.Test.make
         ~name:"sync-only reduction preserves terminal states and bug bounds"
         ~count:120
         (QCheck.make ~print:(fun s -> s) Gen.program)
         reduction_holds);
    qtest
      (QCheck.Test.make
         ~name:"sync-only explores no more states than every-access"
         ~count:60
         (QCheck.make ~print:(fun s -> s) Gen.program)
         (fun src ->
           let prog = Icb.compile src in
           let states config =
             (Icb.run ~config
                ~strategy:(Icb_search.Explore.Dfs { cache = true })
                prog)
               .Icb_search.Sresult.distinct_states
           in
           states coarse_config <= states fine_config));
    qtest
      (QCheck.Test.make
         ~name:"sleep sets preserve reachable states on generated programs"
         ~count:60
         (QCheck.make ~print:(fun s -> s) Gen.program)
         (fun src ->
           let prog = Icb.compile src in
           let dfs =
             Icb.run prog ~strategy:(Icb_search.Explore.Dfs { cache = false })
           in
           let sleep = Icb.run prog ~strategy:Icb_search.Explore.Sleep_dfs in
           dfs.Icb_search.Sresult.distinct_states
           = sleep.Icb_search.Sresult.distinct_states
           && sleep.executions <= dfs.executions));
    qtest
      (QCheck.Test.make
         ~name:"icb enumerates the same terminal states as dfs" ~count:60
         (QCheck.make ~print:(fun s -> s) Gen.program)
         (fun src ->
           let prog = Icb.compile src in
           let run strategy =
             (Icb.run prog ~strategy).Icb_search.Sresult.distinct_states
           in
           run (Icb_search.Explore.Icb { max_bound = None; cache = false })
           = run (Icb_search.Explore.Dfs { cache = false })));
  ]

let () = Alcotest.run "reduction" [ ("theorems-2-3", reduction_tests) ]
