type t = int64

let basis = 0xcbf29ce484222325L

let prime = 0x100000001b3L

(* Every loop below keeps its accumulator in a local [ref] that never
   escapes, so ocamlopt holds it unboxed in a register and only the
   returned value is boxed.  The prime is written as a literal in each
   loop body for the same reason: a reference to the toplevel [prime]
   would be a load from its box. *)

let char h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime

let bytes h b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Fnv.bytes";
  let h = ref h in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h

let string h s = bytes h (Bytes.unsafe_of_string s) 0 (String.length s)

let int h n =
  let h = ref h in
  for i = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int ((n lsr (8 * i)) land 0xff)))
        0x100000001b3L
  done;
  !h

let int64 h n =
  let h = ref h in
  for i = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xffL))
        0x100000001b3L
  done;
  !h

let hash_string s = string basis s

let combine_commutative = Int64.add

let to_hex h = Printf.sprintf "%016Lx" h
