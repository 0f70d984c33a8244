(* The repository benchmark: one exhaustive ICB search of a correct
   program per workload, repeated for a fixed time.

     icbbench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it reports the end-to-end metrics, measured with no
   instrumentation at all, each search in a fresh process, with the
   time metrics scaled to a reference host speed (see [kernel]).  With
   --trace 1 it reports the per-layer metrics: every engine call is timed
   from outside through [Timed], the layers below the machine engine are
   timed by re-driving sampled schedules, and the checkpoint, coordinator
   and wire layers are measured through their public interfaces.
   Nothing inside lib/ is instrumented.  The last line of standard output
   is one JSON object; perfbench/metrics.json records which end-to-end
   metric each layer metric is meant to move, and on which workload.

   Every search is deterministic, so the seed selects nothing: it is
   accepted so that every benchmark takes the same arguments, and echoed
   on stderr. *)

module Engine = Icb_search.Engine
module Explore = Icb_search.Explore
module Sresult = Icb_search.Sresult
module Checkpoint = Icb_search.Checkpoint
module Replay_cache = Icb_search.Replay_cache
module Mach_engine = Icb_search.Mach_engine
module Strategy = Icb_search.Strategy
module Chess_engine = Icb_chess.Chess_engine
module Api = Icb_chess.Api
module Msqueue = Icb_lockfree.Msqueue
module Coord = Icb_dist.Coord
module Worker = Icb_dist.Worker
module Metrics = Icb_obs.Metrics
module Telemetry = Icb_obs.Telemetry
module Interp = Icb_machine.Interp

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let wall () = float_of_int (Timed.now ()) *. 1e-9

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile p l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let ratio a b = if b = 0. then 0. else a /. b

let program name =
  match List.assoc_opt name (Icb_models.Registry.addressable ()) with
  | Some p -> p ()
  | None -> failwith ("unknown model " ^ name)

let mach (prog : Icb_machine.Prog.t) :
    (module Engine.S with type state = Mach_engine.state) =
  (module Mach_engine.Make (struct
    let config = Mach_engine.default_config
    let prog = prog
  end))

(* Scratch files live in the checkout, under a directory .gitignore
   names. *)
let scratch_dir = ".perfbench"

let scratch_file name =
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  Filename.concat scratch_dir
    (Printf.sprintf "%s.%d.%d" name (Unix.getpid ()) (Random.bits ()))

let remove path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Terminal-schedule sample                                            *)
(* ------------------------------------------------------------------ *)

(* Keeps the schedules of terminal states whose hash falls in one bucket
   of [every]: a sample fixed by the search space alone, the same for a
   serial, sharded or distributed run of one search.  Sits outside
   [Timed], so the sampling cost is not charged to the engine. *)
module Sample = struct
  let every = 64
  let cap = 256
  let lock = Mutex.create ()
  let table : (int, int list) Hashtbl.t = Hashtbl.create 512

  let hash sched = Hashtbl.hash (List.fold_left (fun h t -> (h * 31) + t + 1) 7 sched)

  let clear () = Mutex.protect lock (fun () -> Hashtbl.reset table)

  let schedules () =
    Mutex.protect lock (fun () -> Hashtbl.fold (fun h s acc -> (h, s) :: acc) table [])
    |> List.sort compare
    |> List.filteri (fun i _ -> i < cap)
    |> List.map snd

  module Make (E : Engine.S) :
    Engine.S with type state = E.state and type snap = E.snap = struct
    include E

    let status s =
      let st = E.status s in
      (if Engine.is_terminal st then
         let sched = E.schedule s in
         let h = hash sched in
         if h mod every = 0 then
           Mutex.protect lock (fun () -> Hashtbl.replace table h sched));
      st
  end
end

(* Re-drive each sampled schedule through the layers below the machine
   engine, in the order [Mach_engine.step] calls them, timing each call
   into [Timed]'s accumulators. *)
let split_step prog scheds ~passes =
  let gran = Mach_engine.default_config.Mach_engine.granularity in
  for _ = 1 to passes do
    List.iter
      (fun sched ->
        let r = Interp.start gran prog in
        let det =
          ref
            (match Icb_race.Vcdetect.observe Icb_race.Vcdetect.empty r.events with
            | Ok d -> Some d
            | Error _ -> None)
        in
        let hbs = ref (Icb_race.Hbsig.observe Icb_race.Hbsig.empty r.events) in
        let st = ref r.state in
        List.iter
          (fun tid ->
            match !det with
            | None -> ()
            | Some d ->
              let r = Timed.timed2 Timed.Interp_step (Interp.step gran) !st tid in
              det :=
                (match
                   Timed.timed2 Timed.Vcdetect_observe Icb_race.Vcdetect.observe d
                     r.events
                 with
                | Ok d -> Some d
                | Error _ -> None);
              hbs := Timed.timed2 Timed.Hbsig_observe Icb_race.Hbsig.observe !hbs r.events;
              ignore (Timed.timed Timed.State_signature Icb_machine.State.signature r.state);
              st := r.state)
          sched)
      scheds
  done

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The result every run must reproduce: no bug, a search that ran to its
   bound (no limit stopped it), and these exact counts. *)
type pin = { executions : int; states : int; steps : int }

let matches pin (r : Sresult.t) =
  r.bugs = [] && r.stop_reason = None
  && r.executions = pin.executions
  && r.distinct_states = pin.states
  && r.total_steps = pin.steps

let describe (r : Sresult.t) =
  Printf.sprintf "executions=%d states=%d steps=%d bugs=%d stopped=%b"
    r.executions r.distinct_states r.total_steps (List.length r.bugs) (r.stop_reason <> None)

(* What a traced session exposes besides the timed engine calls. *)
type probe = {
  mutable cache : Replay_cache.stats option;
  mutable telemetry : Telemetry.t option;
  mutable checkpoint : string option;
  mutable coord : Coord.t option;
  mutable relay : Relay.t option;
}

let fresh_probe () =
  { cache = None; telemetry = None; checkpoint = None; coord = None; relay = None }

type session = { search : unit -> Sresult.t; teardown : unit -> unit }

type kind = Machine of string | Chess

type workload = {
  name : string;
  kind : kind;
  workers : int;  (** domains that call the engine during the search *)
  busy : int;  (** domains the search keeps busy: [workers], plus the coordinator *)
  pin : pin;
  prepare : probe option -> session;
      (** everything before the search call; [Some probe] selects the
          traced engine and fills the probe *)
  serial : (unit -> Sresult.t) option;
      (** the same search, serial and uncached ([cache = false] as the CLI
          uses): the reference a sharded or distributed run must equal *)
  without_checkpoint : (unit -> session) option;
      (** the untraced session with checkpointing off, when it is on *)
}

let icb bound = Explore.Icb { max_bound = Some bound; cache = false }

let cache_hook probe =
  Option.map (fun p s -> p.cache <- Some s) probe

let machine_engine probe prog =
  match probe with
  | None -> mach prog
  | Some _ ->
    let module E = (val mach prog) in
    (module Sample.Make (Timed.Make (E)) : Engine.S
      with type state = Mach_engine.state)

let serial_of model bound () =
  let prog = program model in
  Explore.run (mach prog) ~env:(Strategy.env_of_prog prog) (icb bound)

(* peterson, machine engine, default config, replay cache on, one domain,
   no checkpoint: the ZING configuration on a deep, heap-free model. *)
let peterson_serial =
  let bound = 3 in
  {
    name = "peterson-serial";
    kind = Machine "peterson";
    workers = 1;
    busy = 1;
    pin = { executions = 1678; states = 1269; steps = 17198 };
    serial = None;
    without_checkpoint = None;
    prepare =
      (fun probe ->
        let prog = program "peterson" in
        let engine = machine_engine probe prog in
        let env = Strategy.env_of_prog prog in
        {
          search =
            (fun () ->
              Explore.run engine ~env ?on_cache_stats:(cache_hook probe) (icb bound));
          teardown = ignore;
        });
  }

(* transaction-manager on two domains, checkpointing at the CLI's default
   cadence: the sharded driver, its pause/park quorum and checkpoint
   writes. *)
let txn_bound = 3

let txn_session ~checkpoint probe =
  let prog = program "transaction-manager" in
  let path = if checkpoint then Some (scratch_file "txn.ckpt") else None in
  let telemetry =
    Option.map
      (fun p ->
        let t = Telemetry.create () in
        Telemetry.track_metrics t;
        p.telemetry <- Some t;
        p.checkpoint <- path;
        t)
      probe
  in
  {
    search =
      (fun () ->
        Icb_search.Parallel.run
          (fun _ -> machine_engine probe prog)
          ?checkpoint_out:path ~checkpoint_every:Explore.default_checkpoint_every
          ?telemetry ~share_states:true ?on_cache_stats:(cache_hook probe) ~domains:2
          ~max_bound:(Some txn_bound) ~cache:false ());
    (* a traced run keeps the final checkpoint to measure it *)
    teardown = (fun () -> if probe = None then Option.iter remove path);
  }

let txn_jobs2_ckpt =
  {
    name = "txn-jobs2-ckpt";
    kind = Machine "transaction-manager";
    workers = 2;
    busy = 2;
    pin = { executions = 2628; states = 479; steps = 24664 };
    serial = Some (serial_of "transaction-manager" txn_bound);
    without_checkpoint = Some (fun () -> txn_session ~checkpoint:false None);
    prepare = txn_session ~checkpoint:true;
  }

(* Three threads that each enqueue and then dequeue on the Michael-Scott
   queue; every value must come out exactly once. *)
let msqueue_body () =
  let q = Msqueue.create () in
  let got = Array.init 3 (fun _ -> Api.Data.make None) in
  let d = Api.Semaphore.create 0 in
  for i = 0 to 2 do
    Api.spawn (fun () ->
        Msqueue.enqueue q (i + 1);
        Api.Data.set got.(i) (Msqueue.dequeue q);
        Api.Semaphore.release d)
  done;
  for _ = 1 to 3 do
    Api.Semaphore.acquire d
  done;
  let rec drain acc =
    match Msqueue.dequeue q with Some v -> drain (v :: acc) | None -> acc
  in
  let out =
    Array.fold_left
      (fun acc c -> match Api.Data.get c with Some v -> v :: acc | None -> acc)
      (drain []) got
  in
  if List.sort compare out <> [ 1; 2; 3 ] then failwith "queue lost or duplicated a value"

(* The CHESS engine: stateless replay from the root, happens-before
   signatures, no snapshots. *)
let msqueue_chess =
  let bound = 1 in
  {
    name = "msqueue-chess";
    kind = Chess;
    workers = 1;
    busy = 1;
    pin = { executions = 1016; states = 12071; steps = 18195 };
    serial = None;
    without_checkpoint = None;
    prepare =
      (fun probe ->
        let engine =
          match probe with
          | None -> Chess_engine.engine msqueue_body
          | Some _ ->
            let module E = (val Chess_engine.engine msqueue_body) in
            (module Timed.Make (E) : Engine.S with type state = Chess_engine.state)
        in
        {
          search =
            (fun () -> Explore.run engine ?on_cache_stats:(cache_hook probe) (icb bound));
          teardown = ignore;
        });
  }

(* dryad-channels served by a coordinator to one worker domain over
   loopback; in the traced run the worker talks through [Relay]. *)
let dryad_distributed =
  let bound = 1 in
  {
    name = "dryad-distributed";
    kind = Machine "dryad-channels";
    workers = 1;
    busy = 2;
    pin = { executions = 6592; states = 1383; steps = 55854 };
    serial = Some (serial_of "dryad-channels" bound);
    without_checkpoint = None;
    prepare =
      (fun probe ->
        let prog = program "dryad-channels" in
        let root = mach prog in
        let engine = machine_engine probe prog in
        let coord = Coord.create () in
        let relay =
          Option.map
            (fun p ->
              let r = Relay.start ~target:(Coord.port coord) in
              p.coord <- Some coord;
              p.relay <- Some r;
              r)
            probe
        in
        let port = match relay with Some r -> Relay.port r | None -> Coord.port coord in
        let worker =
          Domain.spawn (fun () ->
              Worker.run ~host:"127.0.0.1" ~port
                ~resolve:(fun _ -> Ok (Worker.Packed engine))
                ())
        in
        let env = Strategy.env_of_prog prog in
        {
          search = (fun () -> Coord.run coord root ~env (icb bound));
          teardown =
            (fun () ->
              (match Domain.join worker with
              | Ok _ -> ()
              | Error e -> failwith ("worker: " ^ e));
              Option.iter Relay.stop relay;
              Coord.shutdown coord);
        });
  }

let workloads = [ peterson_serial; txn_jobs2_ckpt; msqueue_chess; dryad_distributed ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type rep = {
  setup_s : float;
  search_s : float;
  cpu_s : float;
  result : Sresult.t;
  ok : bool;
}

(* Each search starts after a full major collection, so in a process
   that searches repeatedly one search's garbage does not slow the next. *)
let run_rep ?probe w =
  Gc.compact ();
  let t0 = wall () in
  let s = w.prepare probe in
  let t1 = wall () in
  let c1 = cpu () in
  let result = s.search () in
  let t2 = wall () in
  let c2 = cpu () in
  s.teardown ();
  let ok = matches w.pin result in
  if not ok then Printf.eprintf "%s: result differs from the pin: %s\n%!" w.name (describe result);
  { setup_s = t1 -. t0; search_s = t2 -. t1; cpu_s = c2 -. c1; result; ok }

let rate r = float_of_int r.result.executions /. r.search_s

(* The untraced run measures each search in a process of its own, as a
   CLI invocation runs it: set-up, search and peak heap are then those of
   one fresh process, whatever ran before.  The child prints one line. *)
type sample = {
  c_setup : float;
  c_search : float;
  c_cpu : float;
  c_execs : int;
  c_peak : int;  (** bytes *)
  c_ok : bool;
  c_kernel : float;  (** wall seconds of [host_kernel] right after the search *)
  c_kernel_cpu : float;  (** its CPU seconds per domain and pass *)
}

let child w =
  let r = run_rep w in
  let peak = (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8) in
  Printf.printf "%h %h %h %d %d %B\n%!" r.setup_s r.search_s r.cpu_s r.result.executions peak r.ok

(* On a shared host another tenant's load slows a search by up to 45 %,
   in wall and CPU time alike, and the slow spells last from a second to
   minutes, so raw times of one commit drift between runs by more than a
   regression bound.  Right after each search's process the benchmark
   therefore times a fixed reference kernel, in a fresh process of its
   own, so that nothing the program does can move it.  The kernel does the
   kind of work a search does -- allocation, hashing, short lists in a
   table that fits in L2 -- and its time tracks the search's time per
   execution, so scaling each search's times by
   [reference_kernel_s /. kernel time] takes most of the host's speed out
   of them: the time metrics read as on a host where the kernel takes
   [reference_kernel_s]. *)
let reference_kernel_s = 0.02

let kernel () =
  let h = Hashtbl.create 8192 in
  for i = 0 to 200_000 do
    Hashtbl.replace h (Hashtbl.hash (i * 7919) land 8191) [ i; i + 1; i + 2 ]
  done;
  ignore (Sys.opaque_identity h)

(* The kernel runs on as many domains at once as the search keeps busy,
   since a search on two domains waits on both cores.  In each domain a
   first pass maps the kernel's heap and the second, timed, pass does only
   the kernel's work.  The result is the mean wall seconds of a timed pass
   over the domains, which scales the wall-time metrics, and the process
   CPU seconds per domain and pass, which scales the CPU metric: a core
   the host takes away stretches wall time but not CPU time. *)
let host_kernel domains =
  let run () =
    kernel ();
    let t0 = wall () in
    kernel ();
    wall () -. t0
  in
  let c0 = cpu () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn run) in
  let k = run () in
  let ks = k :: List.map Domain.join others in
  let n = float_of_int domains in
  (List.fold_left ( +. ) 0. ks /. n, (cpu () -. c0) /. (2. *. n))

(* Runs this executable with [args] and returns the one line it prints,
   if it exits with code 0. *)
let run_child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = In_channel.input_line ic in
  close_in ic;
  match (snd (Unix.waitpid [] pid), line) with
  | Unix.WEXITED 0, Some l -> Some l
  | _ -> None

let spawn w =
  let search = run_child [ "--child"; w.name ] in
  let host = run_child [ "--kernel"; string_of_int w.busy ] in
  match (search, host) with
  | Some l, Some k -> (
    try
      let c_kernel, c_kernel_cpu = Scanf.sscanf k "%h %h" (fun w c -> (w, c)) in
      Some
        (Scanf.sscanf l "%h %h %h %d %d %B"
           (fun c_setup c_search c_cpu c_execs c_peak c_ok ->
             { c_setup; c_search; c_cpu; c_execs; c_peak; c_ok; c_kernel; c_kernel_cpu }))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  | _ -> None

(* Searches are short, so a run holds dozens of them (at least ten), and
   every metric is the median over the run's searches. *)
let end_to_end w ~seconds =
  let deadline = wall () +. seconds in
  let rec loop acc =
    let acc = spawn w :: acc in
    if wall () < deadline || List.length acc < 10 then loop acc else acc
  in
  let runs = loop [] in
  let samples = List.filter_map Fun.id runs in
  let attempted = List.length runs in
  let failed = attempted - List.length (List.filter (fun s -> s.c_ok) samples) in
  let execs s = float_of_int s.c_execs in
  let all f = List.map f samples in
  let pick f = median (all f) in
  let host s = reference_kernel_s /. s.c_kernel in
  let host_cpu s = reference_kernel_s /. s.c_kernel_cpu in
  let rates = all (fun s -> execs s /. s.c_search) in
  Printf.eprintf "%s: %d searches; raw execs/s p10 %.0f, median %.0f, p90 %.0f; kernel ms median %.2f\n"
    w.name (List.length samples) (percentile 0.1 rates) (median rates) (percentile 0.9 rates)
    (1e3 *. pick (fun s -> s.c_kernel));
  Printf.eprintf "  kernel CPU ms median %.2f\n" (1e3 *. pick (fun s -> s.c_kernel_cpu));
  (* the error share travels as failed/attempted in the result line: the
     metrics there must never read 0 *)
  Printf.eprintf "  %-32s %14.6g share\n%!" "error_share"
    (float_of_int failed /. float_of_int attempted);
  ( attempted,
    failed,
    [
      ("ref_execs_per_s", "1/s", pick (fun s -> execs s /. (s.c_search *. host s)));
      ("setup_s", "s", pick (fun s -> s.c_setup *. host s));
      ("peak_heap_mb", "MB", pick (fun s -> float_of_int s.c_peak /. 1048576.));
      ("ref_cpu_us_per_exec", "us", pick (fun s -> 1e6 *. s.c_cpu *. host_cpu s /. execs s));
    ] )

(* --- the traced run -------------------------------------------------- *)

let layer_units =
  [
    ("mach_engine.signature_ns", "ns");
    ("mach_engine.signature_words", "words");
    ("mach_engine.signature_calls", "count");
    ("state.signature_ns", "ns");
    ("state.signature_words", "words");
    ("mach_engine.step_ns", "ns");
    ("mach_engine.step_words", "words");
    ("mach_engine.step_calls", "count");
    ("interp.step_ns", "ns");
    ("vcdetect.observe_ns", "ns");
    ("hbsig.observe_ns", "ns");
    ("mach_engine.enabled_ns", "ns");
    ("mach_engine.status_ns", "ns");
    ("mach_engine.initial_calls", "count");
    ("replay_cache.hit_ratio", "ratio");
    ("replay_cache.steps_saved", "count");
    ("replay_cache.steps_replayed", "count");
    ("mach_engine.restore_calls", "count");
    ("search.self_share", "share");
    ("search.words_per_exec", "words/exec");
    ("search.steps_per_exec", "steps/exec");
    ("chess_engine.step_ns", "ns");
    ("chess_engine.signature_ns", "ns");
    ("chess_engine.replays_per_exec", "replays/exec");
    ("driver.engine_busy_share", "share");
    ("driver.speedup_vs_serial", "x");
    ("checkpoint.writes", "count");
    ("checkpoint.bytes", "bytes");
    ("checkpoint.save_ms", "ms");
    ("checkpoint.load_ms", "ms");
    ("checkpoint.overhead_share", "share");
    ("coord.batches", "count");
    ("coord.rounds", "count");
    ("coord.leases_reissued", "count");
    ("coord.stale_reports", "count");
    ("proto.bytes_per_exec", "bytes/exec");
    ("proto.frames", "count");
    ("proto.reply_ms_p50", "ms");
    ("proto.reply_ms_p99", "ms");
    ("worker.engine_share", "share");
    ("trace.overhead_share", "share");
  ]

let time_ms f =
  let t0 = wall () in
  f ();
  (wall () -. t0) *. 1000.

let words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let traced w ~seconds =
  let values = Hashtbl.create 64 in
  let set k v =
    assert (List.mem_assoc k layer_units);
    Hashtbl.replace values k v
  in
  let failed = ref 0 and attempted = ref 0 in
  let count r =
    incr attempted;
    if not r.ok then incr failed;
    r
  in
  (* Alternate untraced and traced searches; the last traced one is the
     one the layer metrics describe. *)
  let deadline = wall () +. seconds in
  let plain = ref [] and timed = ref [] and replies = ref [] in
  let rec loop () =
    plain := rate (count (run_rep w)) :: !plain;
    let probe = fresh_probe () in
    Timed.clear ();
    Sample.clear ();
    let w0 = words () in
    let r = count (run_rep ~probe w) in
    let w1 = words () in
    timed := rate r :: !timed;
    Option.iter (fun rl -> replies := Relay.reply_ns rl @ !replies) probe.relay;
    if wall () < deadline || List.length !timed < 2 then begin
      Option.iter remove probe.checkpoint;
      loop ()
    end
    else (r, probe, w1 -. w0)
  in
  let r, probe, search_words = loop () in
  let execs = float_of_int r.result.executions in
  let t = Timed.totals () in
  let engine_ns = float_of_int (Timed.engine_ns t) in
  let wall_ns = r.search_s *. 1e9 in
  set "trace.overhead_share" (1. -. ratio (median !timed) (median !plain));
  set "search.self_share" (1. -. ratio engine_ns (wall_ns *. float_of_int w.workers));
  set "search.words_per_exec" (search_words /. execs);
  set "search.steps_per_exec" (float_of_int r.result.total_steps /. execs);
  let busiest =
    List.sort (fun a b -> compare b a) (Timed.per_domain_engine_ns ())
    |> List.filteri (fun i _ -> i < w.workers)
  in
  set "driver.engine_busy_share"
    (ratio (float_of_int (List.fold_left min max_int busiest)) wall_ns);
  let per = Timed.ns_per_call t in
  (match w.kind with
  | Chess ->
    set "chess_engine.step_ns" (per Timed.Step);
    set "chess_engine.signature_ns" (per Timed.Signature)
  | Machine _ ->
    set "mach_engine.signature_ns" (per Timed.Signature);
    set "mach_engine.signature_words" (Timed.words_per_call t Timed.Signature);
    set "mach_engine.signature_calls" (float_of_int (Timed.calls t Timed.Signature));
    set "mach_engine.step_ns" (per Timed.Step);
    set "mach_engine.step_words" (Timed.words_per_call t Timed.Step);
    set "mach_engine.step_calls" (float_of_int (Timed.calls t Timed.Step));
    set "mach_engine.enabled_ns" (per Timed.Enabled);
    set "mach_engine.status_ns" (per Timed.Status);
    set "mach_engine.initial_calls" (float_of_int (Timed.calls t Timed.Initial));
    set "mach_engine.restore_calls" (float_of_int (Timed.calls t Timed.Restore)));
  (match probe.cache with
  | Some c ->
    set "replay_cache.hit_ratio" (ratio (float_of_int c.hits) (float_of_int (c.hits + c.misses)));
    set "replay_cache.steps_saved" (float_of_int c.steps_saved);
    set "replay_cache.steps_replayed" (float_of_int c.steps_replayed)
  | None -> ());
  (* Layers below the machine engine, on the run's own sample. *)
  (match w.kind with
  | Machine model ->
    let scheds = Sample.schedules () in
    Timed.clear ();
    split_step (program model) scheds ~passes:3;
    let t = Timed.totals () in
    let per = Timed.ns_per_call t in
    set "interp.step_ns" (per Timed.Interp_step);
    set "vcdetect.observe_ns" (per Timed.Vcdetect_observe);
    set "hbsig.observe_ns" (per Timed.Hbsig_observe);
    set "state.signature_ns" (per Timed.State_signature);
    set "state.signature_words" (Timed.words_per_call t Timed.State_signature);
    Printf.eprintf "%s: split step over %d sampled schedules\n%!" w.name
      (List.length scheds)
  | Chess -> ());
  (* The CHESS engine's replays from the root, over one untraced search. *)
  (match w.kind with
  | Chess ->
    let before = Chess_engine.replays () in
    let r = count (run_rep w) in
    set "chess_engine.replays_per_exec"
      (float_of_int (Chess_engine.replays () - before) /. float_of_int r.result.executions)
  | Machine _ -> ());
  (* Checkpoint layer: writes from the telemetry counter, file size and
     save/load cost on the final checkpoint, and the share of the search
     a checkpoint-off rerun saves. *)
  let off_rate = ref None in
  (match (probe.telemetry, probe.checkpoint, w.without_checkpoint) with
  | Some tel, Some path, Some off ->
    let find k = Option.value ~default:0. (Metrics.find (Telemetry.metrics tel) k) in
    set "checkpoint.writes" (find "icb_checkpoints_total");
    set "checkpoint.bytes" (float_of_int (Unix.stat path).Unix.st_size);
    let ck = ref (Checkpoint.load path) in
    set "checkpoint.load_ms"
      (median (List.init 5 (fun _ -> time_ms (fun () -> ck := Checkpoint.load path))));
    let copy = scratch_file "copy.ckpt" in
    set "checkpoint.save_ms"
      (median (List.init 5 (fun _ -> time_ms (fun () -> Checkpoint.save ~path:copy !ck))));
    remove copy;
    remove path;
    let r_off = count (run_rep { w with prepare = (fun _ -> off ()) }) in
    off_rate := Some (rate r_off);
    set "checkpoint.overhead_share" (1. -. ratio (median !plain) (rate r_off))
  | _ -> ());
  (* Coordinator counters and the relay's view of the wire. *)
  (match (probe.coord, probe.relay) with
  | Some coord, Some relay ->
    let find k = Option.value ~default:0. (Metrics.find (Telemetry.metrics (Coord.telemetry coord)) k) in
    set "coord.batches" (find "icb_dist_batches_completed");
    set "coord.rounds" (find "icb_dist_rounds");
    set "coord.leases_reissued" (find "icb_dist_leases_reissued");
    set "coord.stale_reports" (find "icb_dist_stale_reports");
    set "proto.bytes_per_exec" (float_of_int (Relay.bytes relay) /. execs);
    set "proto.frames" (float_of_int (Relay.frames relay));
    (* latencies of every traced search, so the 99th percentile has
       samples beyond it *)
    let ms = List.map (fun ns -> float_of_int ns *. 1e-6) !replies in
    set "proto.reply_ms_p50" (percentile 0.5 ms);
    set "proto.reply_ms_p99" (percentile 0.99 ms);
    set "worker.engine_share" (ratio engine_ns wall_ns)
  | _ -> ());
  (* A sharded or distributed search against the serial one, both
     without checkpoints. *)
  (match w.serial with
  | Some f ->
    let r_serial = count (run_rep { w with prepare = (fun _ -> { search = f; teardown = ignore }) }) in
    let sharded = Option.value !off_rate ~default:(median !plain) in
    set "driver.speedup_vs_serial" (ratio sharded (rate r_serial))
  | None -> set "driver.speedup_vs_serial" 1.);
  ( !attempted,
    !failed,
    List.map (fun (k, u) -> (k, u, Option.value ~default:0. (Hashtbl.find_opt values k))) layer_units )

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (k, u, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (json_number v) u)
         metrics)
  in
  List.iter (fun (k, u, v) -> Printf.eprintf "  %-32s %14.6g %s\n" k v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed body

let usage () =
  prerr_endline
    "usage: icbbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := List.find_opt (fun w -> w.name = v) workloads;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0. then Some s else None);
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | [ "--kernel"; n ] -> (
      match int_of_string_opt n with
      | Some domains when domains >= 1 ->
        let w, c = host_kernel domains in
        Printf.printf "%h %h\n%!" w c;
        exit 0
      | _ -> usage ())
    | [ "--child"; name ] -> (
      match List.find_opt (fun w -> w.name = name) workloads with
      | Some w ->
        child w;
        exit 0
      | None -> usage ())
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace ->
    Printf.eprintf "workload %s, seed %d (unused: the search is deterministic), %gs, trace %b\n%!"
      w.name seed seconds trace;
    if trace then
      let attempted, failed, metrics = traced w ~seconds in
      print_result ~attempted ~failed metrics
    else
      let attempted, failed, metrics = end_to_end w ~seconds in
      print_result ~attempted ~failed metrics
  | _ -> usage ()
