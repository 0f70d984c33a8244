(* The one engine timer: a functor over [Engine.S] that counts calls,
   monotonic nanoseconds and minor-heap words per call of every engine
   operation, into accumulators private to the calling domain.  Every
   workload's engine goes through it in the traced run, so [*.step_ns]
   means the same thing for the machine engine, the CHESS engine and the
   distributed worker's engine.  The same accumulators time the machine
   layers below the engine ([Interp], [Vcdetect], [Hbsig], [State]) when
   the benchmark re-drives sampled schedules through them. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (now_ns ())

type op =
  | Initial
  | Enabled
  | Step
  | Status
  | Signature
  | Snapshot
  | Restore
  | Other  (** the rest of [Engine.S] that does work: [step_footprint] *)
  | Interp_step
  | Vcdetect_observe
  | Hbsig_observe
  | State_signature

let engine_ops = [ Initial; Enabled; Step; Status; Signature; Snapshot; Restore; Other ]
let ops = engine_ops @ [ Interp_step; Vcdetect_observe; Hbsig_observe; State_signature ]

let index = function
  | Initial -> 0
  | Enabled -> 1
  | Step -> 2
  | Status -> 3
  | Signature -> 4
  | Snapshot -> 5
  | Restore -> 6
  | Other -> 7
  | Interp_step -> 8
  | Vcdetect_observe -> 9
  | Hbsig_observe -> 10
  | State_signature -> 11

type acc = { calls : int array; ns : int array; words : int array }

let fresh () =
  let n = List.length ops in
  { calls = Array.make n 0; ns = Array.make n 0; words = Array.make n 0 }

(* Every domain's accumulator, so [totals] can sum them after the
   domains have joined (or between searches, when no engine call runs). *)
let registry = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let a = fresh () in
      Mutex.lock registry_lock;
      registry := a :: !registry;
      Mutex.unlock registry_lock;
      a)

let clear () =
  Mutex.lock registry_lock;
  List.iter
    (fun a ->
      Array.fill a.calls 0 (Array.length a.calls) 0;
      Array.fill a.ns 0 (Array.length a.ns) 0;
      Array.fill a.words 0 (Array.length a.words) 0)
    !registry;
  Mutex.unlock registry_lock

(* Nanoseconds inside [Engine.S] calls, not counting the layers below. *)
let engine_ns a = List.fold_left (fun acc op -> acc + a.ns.(index op)) 0 engine_ops

(* Nanoseconds inside engine calls, per domain that made any. *)
let per_domain_engine_ns () =
  Mutex.lock registry_lock;
  let r = List.filter (fun n -> n > 0) (List.map engine_ns !registry) in
  Mutex.unlock registry_lock;
  r

let totals () =
  let t = fresh () in
  Mutex.lock registry_lock;
  List.iter
    (fun a ->
      Array.iteri (fun i v -> t.calls.(i) <- t.calls.(i) + v) a.calls;
      Array.iteri (fun i v -> t.ns.(i) <- t.ns.(i) + v) a.ns;
      Array.iteri (fun i v -> t.words.(i) <- t.words.(i) + v) a.words)
    !registry;
  Mutex.unlock registry_lock;
  t

let calls t op = t.calls.(index op)
let ns t op = t.ns.(index op)
let words t op = t.words.(index op)

let per_call total calls =
  if calls = 0 then 0. else float_of_int total /. float_of_int calls

let ns_per_call t op = per_call (ns t op) (calls t op)
let words_per_call t op = per_call (words t op) (calls t op)

(* Minor words as an int, so no float is boxed between the two readings. *)
let minor_words () = int_of_float (Gc.minor_words ())

let record op w0 t0 =
  let t1 = now () in
  let w1 = minor_words () in
  let a = Domain.DLS.get key in
  let i = index op in
  a.calls.(i) <- a.calls.(i) + 1;
  a.ns.(i) <- a.ns.(i) + (t1 - t0);
  a.words.(i) <- a.words.(i) + (w1 - w0)

let timed op f x =
  let w0 = minor_words () in
  let t0 = now () in
  match f x with
  | r ->
    record op w0 t0;
    r
  | exception e ->
    record op w0 t0;
    raise e

let timed2 op f x y =
  let w0 = minor_words () in
  let t0 = now () in
  match f x y with
  | r ->
    record op w0 t0;
    r
  | exception e ->
    record op w0 t0;
    raise e

module Make (E : Icb_search.Engine.S) :
  Icb_search.Engine.S with type state = E.state and type snap = E.snap =
struct
  include E

  let initial () = timed Initial E.initial ()
  let enabled s = timed Enabled E.enabled s
  let step s tid = timed2 Step E.step s tid
  let status s = timed Status E.status s
  let signature s = timed Signature E.signature s
  let step_footprint s tid = timed2 Other E.step_footprint s tid
  let snapshot = Option.map (fun capture s -> timed Snapshot capture s) E.snapshot
  let restore sn = timed Restore E.restore sn
end
