(* CHESS test bodies shared by several suites. *)

module Api = Icb_chess.Api
module Msqueue = Icb_lockfree.Msqueue

(* Three threads that each enqueue and then dequeue on the Michael-Scott
   queue; every value must come out exactly once.  Bound 1 explores 1,016
   executions and finds no bug. *)
let msqueue () =
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
  if List.sort compare out <> [ 1; 2; 3 ] then
    failwith "queue lost or duplicated a value"
