(** Immutable machine states.

    A state is a persistent snapshot of the whole guest machine.  The
    interpreter produces a fresh state from each step; the search keeps as
    many states alive as its frontier needs.  Mutation is always
    copy-on-write, so retaining a state is free.

    The canonical fingerprint implements ZING-style heap-symmetry
    reduction: heap addresses are renamed in order of first reachability
    from the globals and thread registers, so states differing only in
    allocation history collapse. *)

module Heap_map : Map.S with type key = int

type thread = {
  proc : int;
  pc : int;
  regs : Value.t array;
  finished : bool;
  yielded : bool;
      (** set by [Yield]; cleared by the next step of any thread, except a
          step that is a plain data access (a scheduling point under
          every-access scheduling only; see [Interp.step]) *)
  atomic : int;    (** nesting depth of entered atomic sections *)
}

type sync_cell =
  | Mutex_cell of int          (** owner tid, or -1 when free *)
  | Event_cell of bool         (** signaled? *)
  | Sem_cell of int            (** available count *)

type heap_cell = {
  data : Value.t array;
  freed : bool;
}

type t = {
  prog : Prog.t;               (** static; shared by all states of a run *)
  goff : int array;            (** cached [Prog.global_offsets] *)
  soff : int array;            (** cached [Prog.sync_offsets] *)
  globals : Value.t array;
  syncs : sync_cell array;
  threads : thread array;
  heap : heap_cell Heap_map.t;
  next_addr : int;
  error : Merr.t option;
  last_tid : int;              (** thread that executed the last step; -1 at start *)
}

val initial : Prog.t -> t
(** The initial state: thread 0 runs [main]; no heap objects. *)

(* Accessors used by the interpreter; all perform bounds checks and raise
   [Invalid_argument] on violations that the compiler should have ruled
   out. *)

val global_get : t -> gid:int -> idx:int -> Value.t
val global_set : t -> gid:int -> idx:int -> Value.t -> t
val global_size : t -> gid:int -> int

val sync_get : t -> sid:int -> idx:int -> sync_cell
val sync_set : t -> sid:int -> idx:int -> sync_cell -> t
val sync_size : t -> sid:int -> int

val thread_get : t -> int -> thread
val thread_set : t -> int -> thread -> t
val thread_count : t -> int
val add_thread : t -> thread -> t * int

val all_finished : t -> bool

val signature : t -> int64
(** 64-bit FNV-1a fingerprint of the canonical representation: always
    [Fnv.hash_string (canonical_repr t)], so fingerprints stored in
    checkpoints and compared across runs keep their values.  The bytes
    are streamed into a per-domain scratch buffer and hashed in place
    rather than built as a string, so a heap-free state allocates only
    the boxed result; states with a heap also reuse one renaming table
    per domain.  Safe to call from several domains at once. *)

val canonical_repr : t -> string
(** The full canonical serialization (exact, collision-free), built by a
    straightforward reference serializer.  [signature] hashes exactly
    these bytes; tests pin the two together, and the string is available
    for exact state caching. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump for trace reports. *)
