(* Run a test body on its own thread and wait for it a bounded time, so a
   body that deadlocks fails its test instead of hanging the suite.  The
   stuck thread is left behind; the failing suite exits with it. *)

exception Timed_out of float

let within ~seconds f =
  let result = Atomic.make None in
  ignore
    (Thread.create
       (fun () ->
         Atomic.set result
           (Some (match f () with v -> Ok v | exception e -> Error e)))
       ());
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None ->
      if Unix.gettimeofday () > deadline then raise (Timed_out seconds);
      Thread.delay 0.01;
      wait ()
  in
  wait ()
