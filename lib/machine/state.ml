module Heap_map = Map.Make (Int)

type thread = {
  proc : int;
  pc : int;
  regs : Value.t array;
  finished : bool;
  yielded : bool;
  atomic : int;
}

type sync_cell =
  | Mutex_cell of int
  | Event_cell of bool
  | Sem_cell of int

type heap_cell = {
  data : Value.t array;
  freed : bool;
}

type t = {
  prog : Prog.t;
  goff : int array;
  soff : int array;
  globals : Value.t array;
  syncs : sync_cell array;
  threads : thread array;
  heap : heap_cell Heap_map.t;
  next_addr : int;
  error : Merr.t option;
  last_tid : int;
}

let initial_sync (decl : Prog.sync_decl) =
  match decl.skind with
  | Prog.Mutex -> Mutex_cell (-1)
  | Prog.Event { initially_signaled; _ } -> Event_cell initially_signaled
  | Prog.Semaphore { initial } -> Sem_cell initial

let initial (prog : Prog.t) =
  let goff = Prog.global_offsets prog in
  let soff = Prog.sync_offsets prog in
  let globals = Array.make goff.(Array.length prog.globals) Value.zero in
  Array.iteri
    (fun gi (g : Prog.global) ->
      for j = 0 to g.gsize - 1 do
        globals.(goff.(gi) + j) <- g.ginit
      done)
    prog.globals;
  let syncs = Array.make soff.(Array.length prog.syncs) (Mutex_cell (-1)) in
  Array.iteri
    (fun si (s : Prog.sync_decl) ->
      for j = 0 to s.ssize - 1 do
        syncs.(soff.(si) + j) <- initial_sync s
      done)
    prog.syncs;
  let main_proc = prog.procs.(prog.main) in
  let thread0 =
    {
      proc = prog.main;
      pc = 0;
      regs = Array.make main_proc.nregs Value.zero;
      finished = Array.length main_proc.code = 0;
      yielded = false;
      atomic = 0;
    }
  in
  {
    prog;
    goff;
    soff;
    globals;
    syncs;
    threads = [| thread0 |];
    heap = Heap_map.empty;
    next_addr = 0;
    error = None;
    last_tid = -1;
  }

let array_set arr i v =
  let arr' = Array.copy arr in
  arr'.(i) <- v;
  arr'

let global_size t ~gid = t.goff.(gid + 1) - t.goff.(gid)

let check_idx what idx size =
  if idx < 0 || idx >= size then
    invalid_arg (Printf.sprintf "State: %s index %d out of %d" what idx size)

let global_get t ~gid ~idx =
  check_idx "global" idx (global_size t ~gid);
  t.globals.(t.goff.(gid) + idx)

let global_set t ~gid ~idx v =
  check_idx "global" idx (global_size t ~gid);
  { t with globals = array_set t.globals (t.goff.(gid) + idx) v }

let sync_size t ~sid = t.soff.(sid + 1) - t.soff.(sid)

let sync_get t ~sid ~idx =
  check_idx "sync" idx (sync_size t ~sid);
  t.syncs.(t.soff.(sid) + idx)

let sync_set t ~sid ~idx c =
  check_idx "sync" idx (sync_size t ~sid);
  { t with syncs = array_set t.syncs (t.soff.(sid) + idx) c }

let thread_get t tid = t.threads.(tid)

let thread_set t tid th = { t with threads = array_set t.threads tid th }

let thread_count t = Array.length t.threads

let add_thread t th =
  let n = Array.length t.threads in
  let threads = Array.make (n + 1) th in
  Array.blit t.threads 0 threads 0 n;
  ({ t with threads }, n)

let all_finished t = Array.for_all (fun th -> th.finished) t.threads

(* --- canonical serialization ---------------------------------------- *)

(* Heap addresses are renamed by order of first reachability: first the
   globals in declaration order, then each thread's registers in tid order,
   then a breadth-first walk through the cells discovered so far.  Values in
   freed cells are not traversed (dangling handles serialize as the special
   marker below).  Unreachable live cells are leaked memory; they are
   appended in address order so that a leak still distinguishes states.

   [canonical_buf] is the reference serializer behind [canonical_repr];
   [signature] below streams the very same bytes without building a
   string, and the tests pin the two together. *)

let canonical_buf t buf =
  let rename = Hashtbl.create 16 in
  let queue = Queue.create () in
  let canon_of addr =
    if addr < 0 then -1
    else
      match Hashtbl.find_opt rename addr with
      | Some c -> c
      | None ->
        let c = Hashtbl.length rename in
        Hashtbl.add rename addr c;
        Queue.push addr queue;
        c
  in
  let add_value v =
    match v with
    | Value.Int n ->
      Buffer.add_char buf 'i';
      Buffer.add_string buf (string_of_int n)
    | Value.Bool b -> Buffer.add_char buf (if b then 'T' else 'F')
    | Value.Handle h ->
      Buffer.add_char buf 'h';
      Buffer.add_string buf (string_of_int (canon_of h))
  in
  let add_sep () = Buffer.add_char buf ';' in
  Array.iter (fun v -> add_value v; add_sep ()) t.globals;
  Buffer.add_char buf '|';
  Array.iter
    (fun c ->
      (match c with
      | Mutex_cell owner ->
        Buffer.add_char buf 'm';
        Buffer.add_string buf (string_of_int owner)
      | Event_cell s -> Buffer.add_char buf (if s then 'E' else 'e')
      | Sem_cell n ->
        Buffer.add_char buf 's';
        Buffer.add_string buf (string_of_int n));
      add_sep ())
    t.syncs;
  Buffer.add_char buf '|';
  Array.iter
    (fun th ->
      Buffer.add_string buf (string_of_int th.proc);
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int th.pc);
      Buffer.add_char buf (if th.finished then 'X' else 'R');
      Buffer.add_char buf (if th.yielded then 'Y' else 'N');
      Buffer.add_string buf (string_of_int th.atomic);
      Buffer.add_char buf ',';
      Array.iter (fun v -> add_value v; add_sep ()) th.regs;
      Buffer.add_char buf '/')
    t.threads;
  Buffer.add_char buf '|';
  (* walk the heap in canonical discovery order *)
  let emit_cell addr =
    match Heap_map.find_opt addr t.heap with
    | None | Some { freed = true; _ } -> Buffer.add_char buf '!'
    | Some { data; freed = false } ->
      Buffer.add_char buf '[';
      Array.iter (fun v -> add_value v; add_sep ()) data;
      Buffer.add_char buf ']'
  in
  let rec drain () =
    if not (Queue.is_empty queue) then begin
      emit_cell (Queue.pop queue);
      drain ()
    end
  in
  drain ();
  (* leaked live cells, in address order, each traversed too *)
  Heap_map.iter
    (fun addr cell ->
      if (not cell.freed) && not (Hashtbl.mem rename addr) then begin
        Buffer.add_char buf 'L';
        ignore (canon_of addr);
        drain ()
      end)
    t.heap;
  Buffer.add_char buf '|';
  (match t.error with
  | None -> ()
  | Some e -> Buffer.add_string buf (Merr.key e))

let canonical_repr t =
  let buf = Buffer.create 256 in
  canonical_buf t buf;
  Buffer.contents buf

(* --- streamed fingerprint --------------------------------------------- *)

(* [signature] writes the bytes [canonical_buf] would write into a
   per-domain scratch that is reset, never reallocated, on each call:
   decimal digits go straight into the byte buffer, heap renaming reuses
   one table, and the discovery-order array doubles as the walk's queue.
   A heap-free state therefore allocates nothing but the boxed hash.

   The threads of one domain share its scratch, and the runtime may
   switch between them at any allocation or poll inside a call, so a
   call takes the scratch out of the domain's cell and puts it back when
   done; a call that finds the cell empty works in a fresh scratch, which
   it leaves there.  Nothing can switch threads between reading the cell
   and emptying it: that stretch neither allocates nor polls. *)

module Addr_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = a land max_int
end)

type scratch = {
  mutable out : Bytes.t;
  mutable len : int;            (* bytes written by this call *)
  rename : int Addr_tbl.t;      (* heap address -> canonical number *)
  mutable order : int array;    (* canonical number -> heap address *)
  mutable head : int;           (* next entry of [order] to emit *)
}

let fresh_scratch () =
  {
    out = Bytes.create 256;
    len = 0;
    rename = Addr_tbl.create 16;
    order = Array.make 16 0;
    head = 0;
  }

let scratch_key : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (Some (fresh_scratch ())))

let grow sc n =
  let out = Bytes.create (max (sc.len + n) (2 * Bytes.length sc.out)) in
  Bytes.blit sc.out 0 out 0 sc.len;
  sc.out <- out

let put_char sc c =
  if sc.len >= Bytes.length sc.out then grow sc 1;
  Bytes.unsafe_set sc.out sc.len c;
  sc.len <- sc.len + 1

(* The digits of [string_of_int n], computed on [-|n|] so that [min_int]
   needs no special case (its 20 characters bound the reservation). *)
let put_int sc n =
  if sc.len + 20 > Bytes.length sc.out then grow sc 20;
  let out = sc.out in
  let start =
    if n < 0 then begin
      Bytes.unsafe_set out sc.len '-';
      sc.len + 1
    end
    else sc.len
  in
  let m = if n < 0 then n else -n in
  let digits = ref 1 and q = ref (m / 10) in
  while !q <> 0 do
    incr digits;
    q := !q / 10
  done;
  let r = ref m in
  for i = start + !digits - 1 downto start do
    Bytes.unsafe_set out i (Char.unsafe_chr (48 - (!r mod 10)));
    r := !r / 10
  done;
  sc.len <- start + !digits

let put_string sc s =
  let n = String.length s in
  if sc.len + n > Bytes.length sc.out then grow sc n;
  Bytes.blit_string s 0 sc.out sc.len n;
  sc.len <- sc.len + n

let canon_of sc addr =
  if addr < 0 then -1
  else
    match Addr_tbl.find_opt sc.rename addr with
    | Some c -> c
    | None ->
      let c = Addr_tbl.length sc.rename in
      Addr_tbl.add sc.rename addr c;
      if c = Array.length sc.order then begin
        let order = Array.make (2 * c) 0 in
        Array.blit sc.order 0 order 0 c;
        sc.order <- order
      end;
      sc.order.(c) <- addr;
      c

let put_values sc vs =
  for i = 0 to Array.length vs - 1 do
    (match Array.unsafe_get vs i with
    | Value.Int n ->
      put_char sc 'i';
      put_int sc n
    | Value.Bool b -> put_char sc (if b then 'T' else 'F')
    | Value.Handle h ->
      put_char sc 'h';
      put_int sc (canon_of sc h));
    put_char sc ';'
  done

(* emit cells in discovery order until the walk catches up with the
   renaming, which emitting a cell may extend *)
let rec drain sc heap =
  if sc.head < Addr_tbl.length sc.rename then begin
    let addr = sc.order.(sc.head) in
    sc.head <- sc.head + 1;
    (match Heap_map.find_opt addr heap with
    | None | Some { freed = true; _ } -> put_char sc '!'
    | Some { data; freed = false } ->
      put_char sc '[';
      put_values sc data;
      put_char sc ']');
    drain sc heap
  end

let put_leaked sc heap addr cell =
  if (not cell.freed) && not (Addr_tbl.mem sc.rename addr) then begin
    put_char sc 'L';
    ignore (canon_of sc addr);
    drain sc heap
  end

let fingerprint sc t =
  sc.len <- 0;
  sc.head <- 0;
  Addr_tbl.clear sc.rename;
  put_values sc t.globals;
  put_char sc '|';
  for i = 0 to Array.length t.syncs - 1 do
    (match Array.unsafe_get t.syncs i with
    | Mutex_cell owner ->
      put_char sc 'm';
      put_int sc owner
    | Event_cell s -> put_char sc (if s then 'E' else 'e')
    | Sem_cell n ->
      put_char sc 's';
      put_int sc n);
    put_char sc ';'
  done;
  put_char sc '|';
  for i = 0 to Array.length t.threads - 1 do
    let th = Array.unsafe_get t.threads i in
    put_int sc th.proc;
    put_char sc ':';
    put_int sc th.pc;
    put_char sc (if th.finished then 'X' else 'R');
    put_char sc (if th.yielded then 'Y' else 'N');
    put_int sc th.atomic;
    put_char sc ',';
    put_values sc th.regs;
    put_char sc '/'
  done;
  put_char sc '|';
  drain sc t.heap;
  if not (Heap_map.is_empty t.heap) then
    Heap_map.iter (put_leaked sc t.heap) t.heap;
  put_char sc '|';
  (match t.error with
  | None -> ()
  | Some e -> put_string sc (Merr.key e));
  Icb_util.Fnv.bytes Icb_util.Fnv.basis sc.out 0 sc.len

let signature t =
  let cell = Domain.DLS.get scratch_key in
  match !cell with
  | Some sc as taken ->
    cell := None;
    let h = fingerprint sc t in
    cell := taken;
    h
  | None ->
    let sc = fresh_scratch () in
    let h = fingerprint sc t in
    cell := Some sc;
    h

let pp fmt t =
  let f x = Format.fprintf fmt x in
  Array.iteri
    (fun gi (g : Prog.global) ->
      f "%s = " g.gname;
      if g.gsize = 1 then f "%a" Value.pp t.globals.(t.goff.(gi))
      else begin
        f "[";
        for j = 0 to g.gsize - 1 do
          if j > 0 then f ", ";
          f "%a" Value.pp t.globals.(t.goff.(gi) + j)
        done;
        f "]"
      end;
      f "@.")
    t.prog.globals;
  Array.iteri
    (fun si (s : Prog.sync_decl) ->
      for j = 0 to s.ssize - 1 do
        let cell = t.syncs.(t.soff.(si) + j) in
        let suffix = if s.ssize = 1 then "" else Printf.sprintf "[%d]" j in
        match cell with
        | Mutex_cell owner when owner >= 0 ->
          f "%s%s held by thread %d@." s.sname suffix owner
        | Mutex_cell _ -> f "%s%s free@." s.sname suffix
        | Event_cell signaled ->
          f "%s%s %s@." s.sname suffix
            (if signaled then "signaled" else "unsignaled")
        | Sem_cell n -> f "%s%s count=%d@." s.sname suffix n
      done)
    t.prog.syncs;
  Array.iteri
    (fun tid th ->
      f "thread %d: %s pc=%d%s%s%s@." tid t.prog.procs.(th.proc).pname th.pc
        (if th.finished then " finished" else "")
        (if th.yielded then " yielded" else "")
        (if th.atomic > 0 then Printf.sprintf " atomic(%d)" th.atomic else ""))
    t.threads;
  Heap_map.iter
    (fun addr cell ->
      if cell.freed then f "&%d: freed@." addr
      else begin
        f "&%d: [" addr;
        Array.iteri
          (fun j v -> if j > 0 then f ", " else (); f "%a" Value.pp v)
          cell.data;
        f "]@."
      end)
    t.heap;
  match t.error with
  | None -> ()
  | Some e -> f "ERROR: %a@." Merr.pp e
