module Interp = Icb_machine.Interp
module Var_map = Interp.Var_map

type data_state = {
  w_tid : int;        (* last writer, or -1 before the first write *)
  w_clock : int;      (* the writer's own clock component at the write *)
  reads : int array;  (* per-thread read epochs since the last write; 0: none *)
}

type t = {
  clocks : Vclock.t array;
      (* per-thread clocks; [Vclock.empty] (never a started thread's clock,
         which has its own component >= 1) marks a thread not seen yet *)
  sync_vc : Vclock.t Var_map.t;
  data : data_state Var_map.t;
}

let empty = { clocks = [||]; sync_vc = Var_map.empty; data = Var_map.empty }

let no_access = { w_tid = -1; w_clock = 0; reads = [||] }

(* A thread's clock starts at {t:1} so its first operation has a non-zero
   epoch. *)
let clock_in clocks tid =
  if tid < Array.length clocks && clocks.(tid) != Vclock.empty then clocks.(tid)
  else Vclock.inc Vclock.empty tid

let data_of data var =
  match Var_map.find var data with d -> d | exception Not_found -> no_access

exception Race of Report.race

let check_write d tid c var =
  if d.w_tid >= 0 && d.w_tid <> tid && d.w_clock > Vclock.get c d.w_tid then
    raise (Race { Report.var; tid1 = d.w_tid; tid2 = tid })

let on_read data tid c var =
  let d = data_of data var in
  check_write d tid c var;
  let epoch = Vclock.get c tid in
  let len = Array.length d.reads in
  if tid < len && d.reads.(tid) = epoch then data
  else begin
    let reads = Array.make (Int.max len (tid + 1)) 0 in
    Array.blit d.reads 0 reads 0 len;
    reads.(tid) <- epoch;
    Var_map.add var { d with reads } data
  end

let on_write data tid c var =
  let d = data_of data var in
  check_write d tid c var;
  (* readers in increasing thread order: the first racing one is reported *)
  for u = 0 to Array.length d.reads - 1 do
    if u <> tid && d.reads.(u) > Vclock.get c u then
      raise (Race { Report.var; tid1 = u; tid2 = tid })
  done;
  let w_clock = Vclock.get c tid in
  if d.w_tid = tid && d.w_clock = w_clock && Array.length d.reads = 0 then data
  else Var_map.add var { w_tid = tid; w_clock; reads = [||] } data

(* [clocks] with [tid]'s clock replaced by [c].  [owned] says [clocks] is
   the private copy of this [observe] call, which may be written in place;
   otherwise the copy is made here. *)
let set_clock clocks ~owned tid c =
  let len = Array.length clocks in
  if tid < len then begin
    let cs = if owned then clocks else Array.copy clocks in
    cs.(tid) <- c;
    cs
  end
  else begin
    let cs = Array.make (Int.max len (tid + 1)) Vclock.empty in
    Array.blit clocks 0 cs 0 len;
    cs.(tid) <- c;
    cs
  end

(* One step's events are folded into a private copy of the clock array,
   made on the first clock update and mutated in place after that; the
   arrays of [t] itself are never written, so [t] stays valid for every
   branch that shares it. *)
let rec fold t clocks ~owned sync_vc data = function
  | [] ->
    if (not owned) && sync_vc == t.sync_vc && data == t.data then t
    else { clocks; sync_vc; data }
  | (ev : Interp.event) :: rest -> (
    match ev with
    | Ev_sync { tid; var } ->
      (* combined acquire-release: pull the variable's knowledge in,
         publish the joined clock, then advance the thread *)
      let vvc =
        match Var_map.find var sync_vc with
        | vc -> vc
        | exception Not_found -> Vclock.empty
      in
      let c = Vclock.join (clock_in clocks tid) vvc in
      let clocks = set_clock clocks ~owned tid (Vclock.inc c tid) in
      fold t clocks ~owned:true (Var_map.add var c sync_vc) data rest
    | Ev_fork { parent; child } ->
      let cp = clock_in clocks parent in
      let clocks =
        set_clock clocks ~owned child (Vclock.join (clock_in clocks child) cp)
      in
      let clocks = set_clock clocks ~owned:true parent (Vclock.inc cp parent) in
      fold t clocks ~owned:true sync_vc data rest
    | Ev_data { tid; var; write } ->
      let c = clock_in clocks tid in
      fold t clocks ~owned sync_vc
        (if write then on_write data tid c var else on_read data tid c var)
        rest
    | Ev_lifetime _ -> fold t clocks ~owned sync_vc data rest)

let observe t events =
  match fold t t.clocks ~owned:false t.sync_vc t.data events with
  | t -> Ok t
  | exception Race r -> Error r
