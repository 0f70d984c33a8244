(* The unified driver's frontier contract, strategy by strategy: a run
   killed mid-search and resumed from its checkpoint — serially or
   sharded across domains — must reach the same outcome as an
   uninterrupted run, and checkpoints written in the older v2 format
   must still load and continue. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine
module Tape = Test_support.Tape

let check = Alcotest.check
let tmp_ckpt () = Filename.temp_file "icb-frontier" ".ckpt"
let schedules = Alcotest.list (Alcotest.list Alcotest.int)

let bug_keys (r : Sresult.t) =
  List.sort_uniq String.compare
    (List.map (fun (b : Sresult.bug) -> b.Sresult.key) r.Sresult.bugs)

let subset small big = List.for_all (fun k -> List.mem k big) small

(* Multiset inclusion over sorted lists: every schedule occurs in [big]
   at least as often as in [small]. *)
let rec multiset_le small big =
  match (small, big) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: bg ->
    let c = compare a b in
    if c = 0 then multiset_le s bg
    else if c > 0 then multiset_le small bg
    else false

let opts lim = { Collector.default_options with Collector.max_executions = lim }

(* --- kill / resume, for every checkpointable strategy --------------------- *)

type case = {
  c_name : string;
  c_strategy : Explore.strategy;
  c_horizon : int option;
      (* execution cap standing in for "to completion" when the strategy
         has no natural end on this model (the randomized walkers) *)
  c_exact : bool;
      (* atomic-item strategies resume exactly: the kill+resume tape is
         the uninterrupted run's execution multiset.  ICB, most-enabled
         and the sealed-space bounds conservatively re-run the
         interrupted item, so for them only the de-duplicated schedule
         set is invariant. *)
  c_shardable : bool; (* also resume the same checkpoint with --jobs 2 *)
}

(* Derived from the strategy registry, so a newly registered strategy is
   covered by this suite automatically — the hand-maintained list this
   replaces silently missed additions. *)
let cases =
  List.filter_map
    (fun (r : Explore.registered) ->
      if not r.Explore.reg_checkpointable then None
      else
        Some
          {
            c_name = r.Explore.reg_name;
            c_strategy = r.Explore.reg_strategy;
            c_horizon = (if r.Explore.reg_bounded then Some 400 else None);
            c_exact = r.Explore.reg_exact;
            c_shardable = r.Explore.reg_shardable;
          })
    (Explore.registry ~seed:11L ())

let kill_resume_case c () =
  let prog =
    Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
  in
  let msg s = Printf.sprintf "%s: %s" c.c_name s in
  (* vb/icb-vb consume the program's shared-variable ranking.  Fresh runs
     get it explicitly; the resumes below deliberately do NOT, exercising
     the checkpoint's authoritative restoration of the ranked keys. *)
  let env = Icb_search.Strategy.env_of_prog prog in
  (* uninterrupted reference run *)
  let full_tape = Tape.create () in
  let full =
    Explore.run
      (Tape.recording_engine prog full_tape)
      ~options:(opts c.c_horizon) ~env c.c_strategy
  in
  (match c.c_horizon with
  | Some h -> check Alcotest.int (msg "full run hits its horizon") h
                full.Sresult.executions
  | None ->
    (* naturally terminated: either `Complete or `Bounded (the sealed
       bounds exhaust their subspace without covering everything) — in
       both cases no stop reason is recorded *)
    check Alcotest.bool (msg "full run terminates naturally") true
      (full.Sresult.stop_reason = None));
  (* kill mid-search.  An execution limit is a deterministic stand-in
     for an arbitrary deadline or kill -9: the checkpoint on disk when
     the limit fires is exactly what a killed process leaves behind
     (atomic write-rename), only the interruption point is
     reproducible. *)
  let kill_at =
    max 1
      ((match c.c_horizon with
       | Some h -> h
       | None -> full.Sresult.executions)
      / 2)
  in
  let path = tmp_ckpt () in
  let kill_tape = Tape.create () in
  let killed =
    Explore.run
      (Tape.recording_engine prog kill_tape)
      ~options:(opts (Some kill_at))
      ~checkpoint_out:path ~checkpoint_every:max_int ~env c.c_strategy
  in
  check Alcotest.bool (msg "was interrupted") true
    (killed.Sresult.stop_reason = Some Sresult.Execution_limit);
  (* resume serially to the reference horizon *)
  let t_serial = Tape.create () in
  let resumed =
    Explore.resume
      (Tape.recording_engine prog t_serial)
      ~options:(opts c.c_horizon) (Checkpoint.load path)
  in
  check (Alcotest.list Alcotest.string) (msg "serial resume: same bug set")
    (bug_keys full) (bug_keys resumed);
  check Alcotest.int (msg "serial resume: same states")
    full.Sresult.distinct_states resumed.Sresult.distinct_states;
  check Alcotest.bool (msg "serial resume: same completion")
    full.Sresult.complete resumed.Sresult.complete;
  if c.c_exact then begin
    check Alcotest.int (msg "serial resume: same executions")
      full.Sresult.executions resumed.Sresult.executions;
    check schedules (msg "serial resume: same execution multiset")
      (Tape.sorted full_tape)
      (List.sort compare (Tape.runs kill_tape @ Tape.runs t_serial))
  end
  else
    (* the interrupted item is conservatively re-queued, so its partial
       subtree may run twice — but nothing outside the uninterrupted
       run's schedule set ever appears, and nothing is missed *)
    check schedules (msg "serial resume: same schedule set")
      (List.sort_uniq compare (Tape.runs full_tape))
      (List.sort_uniq compare (Tape.runs kill_tape @ Tape.runs t_serial));
  (* resume the very same checkpoint sharded over 2 domains *)
  (if c.c_shardable then
     let t_par = Tape.create () in
     let resumed_par =
       Explore.resume
         (Tape.recording_engine prog t_par)
         ~options:(opts c.c_horizon) ~domains:2 (Checkpoint.load path)
     in
     match c.c_horizon with
     | None ->
       check (Alcotest.list Alcotest.string)
         (msg "parallel resume: same bug set") (bug_keys full)
         (bug_keys resumed_par);
       check Alcotest.int (msg "parallel resume: same states")
         full.Sresult.distinct_states resumed_par.Sresult.distinct_states;
       check Alcotest.bool (msg "parallel resume: same completion")
         full.Sresult.complete resumed_par.Sresult.complete;
       if c.c_exact then
         check schedules (msg "parallel resume: same execution multiset")
           (Tape.sorted full_tape)
           (List.sort compare (Tape.runs kill_tape @ Tape.runs t_par))
       else
         check schedules (msg "parallel resume: same schedule set")
           (List.sort_uniq compare (Tape.runs full_tape))
           (List.sort_uniq compare (Tape.runs kill_tape @ Tape.runs t_par))
     | Some h ->
       (* Parallel stopping is cooperative at item boundaries, so an
          execution limit may overshoot by the items in flight, and the
          walks actually executed need not be the first [h] indices —
          only a subset of the indices the round handed out.  The sharp
          invariant is that no walk ever runs twice: the union tape must
          embed, as a multiset, in a serial reference wide enough to
          cover every index the interrupted round could have reached
          (one 64-walk batch plus the in-flight slack). *)
       let wide_tape = Tape.create () in
       let wide =
         Explore.run
           (Tape.recording_engine prog wide_tape)
           ~options:(opts (Some (h + 72)))
           ~env c.c_strategy
       in
       check Alcotest.bool (msg "parallel resume: reached the horizon") true
         (resumed_par.Sresult.executions >= h);
       check Alcotest.bool (msg "parallel resume: bounded overshoot") true
         (resumed_par.Sresult.executions <= h + 8);
       check Alcotest.bool
         (msg "parallel resume: every walk ran at most once") true
         (multiset_le
            (List.sort compare (Tape.runs kill_tape @ Tape.runs t_par))
            (Tape.sorted wide_tape));
       check Alcotest.bool (msg "parallel resume: no bug outside the space")
         true
         (subset (bug_keys resumed_par) (bug_keys wide));
       check Alcotest.bool (msg "parallel resume: progressed past the kill")
         true
         (resumed_par.Sresult.distinct_states
         >= killed.Sresult.distinct_states));
  Sys.remove path

let kill_resume_tests =
  List.map
    (fun c ->
      Alcotest.test_case
        (Printf.sprintf "kill/resume round-trips (%s)" c.c_name)
        `Quick (kill_resume_case c))
    cases

(* --- v2 checkpoint read-compat ------------------------------------------- *)

(* Committed fixtures written by the pre-v3 checkpoint code (see
   test/fixtures/): an ICB run and a random walk over the peterson bug
   model, both interrupted mid-search.  `dune runtest` runs in the test
   directory (the fixtures are declared deps); `dune exec` from the
   project root needs the test/ prefix. *)
let fixture name =
  let candidates =
    [ Filename.concat "fixtures" name;
      Filename.concat (Filename.concat "test" "fixtures") name ]
  in
  try List.find Sys.file_exists candidates
  with Not_found -> List.hd candidates

let v2_compat_tests =
  [
    Alcotest.test_case "a v2 ICB checkpoint resumes to the full result"
      `Quick (fun () ->
        let prog =
          Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
        in
        let fresh =
          Icb.run
            ~strategy:(Explore.Icb { max_bound = Some 4; cache = false })
            prog
        in
        let resume domains =
          Icb.resume ~domains prog (Checkpoint.load (fixture "v2-icb.ckpt"))
        in
        List.iter
          (fun domains ->
            let r = resume domains in
            check Alcotest.string "same strategy" fresh.Sresult.strategy
              r.Sresult.strategy;
            check Alcotest.bool "same completion" fresh.Sresult.complete
              r.Sresult.complete;
            check (Alcotest.list Alcotest.string) "same bug set"
              (bug_keys fresh) (bug_keys r);
            check Alcotest.int "same states" fresh.Sresult.distinct_states
              r.Sresult.distinct_states)
          [ 1; 2 ])
    ;
    Alcotest.test_case "a v2 random-walk checkpoint resumes its walk index"
      `Quick (fun () ->
        (* v2 random-walk frontiers carry no walk index: the strategy
           re-positions itself off the restored execution counter (25
           executions in the fixture) and continues from walk 25 *)
        let prog =
          Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
        in
        let r =
          Icb.resume ~options:(opts (Some 60)) prog
            (Checkpoint.load (fixture "v2-random.ckpt"))
        in
        check Alcotest.string "random strategy" "random" r.Sresult.strategy;
        check Alcotest.int "continues to the execution limit" 60
          r.Sresult.executions;
        check Alcotest.bool "interrupted, not complete" false
          r.Sresult.complete;
        check Alcotest.bool "execution-limit stop reason" true
          (r.Sresult.stop_reason = Some Sresult.Execution_limit);
        check Alcotest.bool "made progress past the fixture" true
          (r.Sresult.distinct_states > 0))
    ;
  ]

(* --- v3 string-param round-trip ------------------------------------------- *)

(* A committed v3 checkpoint of a vb:2 run killed mid-search (3 of 6
   executions on the peterson bug model, written by the CLI — which
   defaults the state cache on).  Exercises the sealed-space bounds'
   string params: the ranked variable keys are restored from the
   checkpoint, so resuming needs no Strategy.env. *)
let v3_fixture_tests =
  [
    Alcotest.test_case "a v3 vb checkpoint carries and round-trips its params"
      `Quick (fun () ->
        let ck = Checkpoint.load (fixture "v3-vb.ckpt") in
        check Alcotest.string "strategy name" "vb:2" ck.Checkpoint.strategy;
        let v3 = Checkpoint.to_v3 ck in
        check Alcotest.string "v3 tag" "vb" v3.Checkpoint.v3_tag;
        let param k = List.assoc_opt k v3.Checkpoint.v3_params in
        check (Alcotest.option Alcotest.string) "n param" (Some "2")
          (param "n");
        check Alcotest.bool "vars param present (ranked keys travel)" true
          (match param "vars" with Some v -> v <> "" | None -> false);
        check Alcotest.bool "sealed param present" true (param "sealed" <> None);
        (* save/load preserves every v3 field bit-for-bit (modulo the
           nondeterministic timing params, which save re-stamps) *)
        let path = tmp_ckpt () in
        Checkpoint.save ~path ck;
        let ck' = Checkpoint.load path in
        Sys.remove path;
        let v3' = Checkpoint.to_v3 ck' in
        let strip ps =
          List.filter
            (fun (k, _) ->
              k <> Checkpoint.elapsed_key && k <> Checkpoint.bound_times_key)
            ps
        in
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "params survive the round-trip"
          (strip v3.Checkpoint.v3_params)
          (strip v3'.Checkpoint.v3_params);
        check Alcotest.int "round survives" v3.Checkpoint.v3_round
          v3'.Checkpoint.v3_round;
        check Alcotest.int "work survives"
          (List.length v3.Checkpoint.v3_work)
          (List.length v3'.Checkpoint.v3_work);
        check Alcotest.int "deferred survives"
          (List.length v3.Checkpoint.v3_next)
          (List.length v3'.Checkpoint.v3_next))
    ;
    Alcotest.test_case "a v3 vb checkpoint resumes to the full result"
      `Quick (fun () ->
        let prog =
          Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
        in
        (* the fixture was written by the CLI, whose parsed vb:2 has the
           state cache on — match it for a comparable fresh run *)
        let fresh =
          Icb.run
            ~strategy:(Explore.Variable_bound { n = 2; cache = true })
            prog
        in
        List.iter
          (fun domains ->
            let r =
              Icb.resume ~domains prog
                (Checkpoint.load (fixture "v3-vb.ckpt"))
            in
            check Alcotest.string "same strategy" fresh.Sresult.strategy
              r.Sresult.strategy;
            check (Alcotest.list Alcotest.string) "same bug set"
              (bug_keys fresh) (bug_keys r);
            check Alcotest.int "same states" fresh.Sresult.distinct_states
              r.Sresult.distinct_states;
            check Alcotest.bool "naturally terminated" true
              (r.Sresult.stop_reason = None))
          [ 1; 2 ])
    ;
  ]

let () =
  Alcotest.run "frontier"
    [
      ("kill-resume", kill_resume_tests);
      ("v2-compat", v2_compat_tests);
      ("v3-fixture", v3_fixture_tests);
    ]
