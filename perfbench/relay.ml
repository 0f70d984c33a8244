(* A loopback relay between distributed workers and the coordinator, used
   only by the traced run.  It forwards whole protocol frames in both
   directions and counts them, so the wire layer is measured without
   touching the protocol code: bytes and frames each way, and the time
   from forwarding a worker's frame to receiving the coordinator's reply
   (the protocol is strictly one reply per worker frame). *)

(* Frame header: 8-byte magic, 4-byte version, 16-byte digest, 4-byte
   big-endian payload length (lib/util/framing.mli). *)
let header_len = 32

type t = {
  listen : Unix.file_descr;
  port : int;
  target : int;
  lock : Mutex.t;
  mutable bytes : int;
  mutable frames : int;
  mutable reply_ns : int list;
  mutable threads : Thread.t list;
  stop : bool Atomic.t;
  mutable acceptor : Thread.t option;
}

let rec really_read fd buf off len =
  if len = 0 then true
  else
    match Unix.read fd buf off len with
    | 0 -> false
    | n -> really_read fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd buf off len
    | exception Unix.Unix_error _ -> false

let rec really_write fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> really_write fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_write fd buf off len

(* Forward frames from [src] to [dst] until [src] closes; [on_frame] runs
   after each complete frame is read, before it is written on. *)
let pump t ~src ~dst ~on_frame =
  let header = Bytes.create header_len in
  let rec loop () =
    if really_read src header 0 header_len then begin
      let len = Int32.to_int (Bytes.get_int32_be header 28) in
      let frame = Bytes.create (header_len + len) in
      Bytes.blit header 0 frame 0 header_len;
      if really_read src frame header_len len then begin
        on_frame ();
        Mutex.lock t.lock;
        t.bytes <- t.bytes + Bytes.length frame;
        t.frames <- t.frames + 1;
        Mutex.unlock t.lock;
        really_write dst frame 0 (Bytes.length frame);
        loop ()
      end
    end
  in
  (try loop () with Unix.Unix_error _ -> ());
  try Unix.shutdown dst Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let serve t worker =
  let coord = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect coord (Unix.ADDR_INET (Unix.inet_addr_loopback, t.target));
  Unix.setsockopt coord Unix.TCP_NODELAY true;
  Unix.setsockopt worker Unix.TCP_NODELAY true;
  let sent_at = Atomic.make 0 in
  let up =
    Thread.create
      (fun () ->
        pump t ~src:worker ~dst:coord ~on_frame:(fun () ->
            Atomic.set sent_at (Timed.now ())))
      ()
  in
  let down =
    Thread.create
      (fun () ->
        pump t ~src:coord ~dst:worker
          ~on_frame:(fun () ->
            let d = Timed.now () - Atomic.get sent_at in
            Mutex.lock t.lock;
            t.reply_ns <- d :: t.reply_ns;
            Mutex.unlock t.lock))
      ()
  in
  Thread.join up;
  Thread.join down;
  Unix.close coord;
  Unix.close worker

let start ~target =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 8;
  let port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let t =
    {
      listen;
      port;
      target;
      lock = Mutex.create ();
      bytes = 0;
      frames = 0;
      reply_ns = [];
      threads = [];
      stop = Atomic.make false;
      acceptor = None;
    }
  in
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.select [ listen ] [] [] 0.05 with
      | [], _, _ -> accept_loop ()
      | _ ->
        let fd, _ = Unix.accept listen in
        let th = Thread.create (serve t) fd in
        Mutex.lock t.lock;
        t.threads <- th :: t.threads;
        Mutex.unlock t.lock;
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    end
  in
  t.acceptor <- Some (Thread.create accept_loop ());
  t

let port t = t.port

(* Call after every worker has disconnected: joins the relay threads. *)
let stop t =
  Atomic.set t.stop true;
  Option.iter Thread.join t.acceptor;
  List.iter Thread.join t.threads;
  Unix.close t.listen

let bytes t = t.bytes
let frames t = t.frames
let reply_ns t = t.reply_ns
