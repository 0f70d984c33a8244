(* Component [i] is thread [i]'s; components past the end are 0.  A value
   is never mutated once returned, so clocks can be shared freely.
   Trailing zeros may be stored (by [set _ _ 0]); [equal] and [compare]
   treat them as absent. *)
type t = int array

let empty = [||]

let get c tid =
  if tid >= 0 && tid < Array.length c then Array.unsafe_get c tid else 0

let set c tid n =
  let len = Array.length c in
  if tid < len then begin
    if c.(tid) = n then c
    else begin
      let c' = Array.copy c in
      c'.(tid) <- n;
      c'
    end
  end
  else if n = 0 then c
  else begin
    let c' = Array.make (tid + 1) 0 in
    Array.blit c 0 c' 0 len;
    c'.(tid) <- n;
    c'
  end

let inc c tid = set c tid (get c tid + 1)

let leq a b =
  let rec go i =
    i < 0 || (Array.unsafe_get a i <= get b i && go (i - 1))
  in
  go (Array.length a - 1)

(* One pass decides domination both ways, so a join that changes nothing
   returns an argument instead of allocating. *)
let join a b =
  let la = Array.length a and lb = Array.length b in
  let a_geq = ref true and b_geq = ref true in
  let n = Int.max la lb in
  for i = 0 to n - 1 do
    let x = if i < la then Array.unsafe_get a i else 0
    and y = if i < lb then Array.unsafe_get b i else 0 in
    if x < y then a_geq := false else if y < x then b_geq := false
  done;
  if !a_geq then a
  else if !b_geq then b
  else begin
    let c = Array.make n 0 in
    for i = 0 to n - 1 do
      c.(i) <- Int.max (get a i) (get b i)
    done;
    c
  end

let compare a b =
  let rec go i n =
    if i >= n then 0
    else
      let c = Int.compare (get a i) (get b i) in
      if c <> 0 then c else go (i + 1) n
  in
  go 0 (Int.max (Array.length a) (Array.length b))

let equal a b = compare a b = 0

let pp fmt c =
  Format.fprintf fmt "{";
  let first = ref true in
  Array.iteri
    (fun tid n ->
      if n <> 0 then begin
        if not !first then Format.fprintf fmt ", ";
        first := false;
        Format.fprintf fmt "%d:%d" tid n
      end)
    c;
  Format.fprintf fmt "}"
