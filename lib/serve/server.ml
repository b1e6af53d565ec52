let log_src = Logs.Src.create "ppr.serve.net" ~doc:"Query-daemon transport"

module Log = (val Logs.src_log log_src : Logs.LOG)

type address = Unix_socket of string | Tcp of string * int

let pp_address ppf = function
  | Unix_socket path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

(* One client connection: a reader thread feeding the engine, and a
   write lock serializing responses from whichever worker domain (or
   admission path) produces them. [closed] is flipped under the write
   lock before the fd is closed, so a late reply can never write into a
   recycled descriptor. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  oc : out_channel;
  wlock : Mutex.t;
  mutable closed : bool;
  mutable thread : Thread.t option;
}

type t = {
  engine : Engine.t;
  address : address;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  conns : (int, conn) Hashtbl.t;
  conns_lock : Mutex.t;
  next_cid : int Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable drained : bool;
  drain_lock : Mutex.t;
}

let engine t = t.engine

let bound_address t =
  match (t.address, Unix.getsockname t.listen_fd) with
  | Unix_socket _, Unix.ADDR_UNIX path -> Unix_socket path
  | Tcp (host, _), Unix.ADDR_INET (_, port) -> Tcp (host, port)
  | addr, _ -> addr

(* ------------------------------------------------------------------ *)
(* Per-connection plumbing.                                            *)

let send conn response =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      if not conn.closed then
        try
          output_string conn.oc (Wire.response_to_string response);
          output_char conn.oc '\n';
          flush conn.oc
        with Sys_error _ | Unix.Unix_error _ ->
          (* The client went away; its remaining replies just drop. *)
          conn.closed <- true)

let close_conn t conn =
  Mutex.lock conn.wlock;
  let was_closed = conn.closed in
  conn.closed <- true;
  Mutex.unlock conn.wlock;
  if not was_closed then begin
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.lock t.conns_lock;
  Hashtbl.remove t.conns conn.cid;
  Mutex.unlock t.conns_lock

(* Request lines are read with a fixed cap, so no connection can make
   its reader hold more than [max_line_bytes] of one line: a longer line
   is skipped through its newline and answered with one [Bad_request]. *)
let max_line_bytes = 1 lsl 20

(* A reader of capped lines over [fd]. Each call returns the next line
   without its newline, [`Too_long] for a line over the cap (consumed
   through its newline or the end of input), or [`Eof] at end of input
   or on a socket error. A last line with no newline is still returned,
   as [input_line] does. *)
let line_reader fd =
  let chunk = Bytes.create 65536 in
  let pos = ref 0 and len = ref 0 in
  let line = Buffer.create 4096 in
  let rec refill () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | n ->
      pos := 0;
      len := n;
      n > 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
    | exception Unix.Unix_error _ -> false
  in
  let rec go overflow =
    if !pos >= !len && not (refill ()) then
      if overflow then `Too_long
      else if Buffer.length line > 0 then `Line (Buffer.contents line)
      else `Eof
    else begin
      let stop =
        match Bytes.index_from_opt chunk !pos '\n' with
        | Some i when i < !len -> i
        | _ -> !len
      in
      let n = stop - !pos in
      let overflow = overflow || Buffer.length line + n > max_line_bytes in
      if overflow then Buffer.clear line
      else Buffer.add_subbytes line chunk !pos n;
      if stop = !len then begin
        pos := !len;
        go overflow
      end
      else begin
        pos := stop + 1;
        if overflow then `Too_long else `Line (Buffer.contents line)
      end
    end
  in
  fun () ->
    Buffer.clear line;
    go false

let serve_conn t conn =
  let read_line = line_reader conn.fd in
  let rec loop () =
    match read_line () with
    | `Eof -> ()
    | `Too_long ->
      send conn
        (Wire.Failed
           ( Telemetry.Json.Null,
             Wire.Bad_request,
             Printf.sprintf "request line longer than %d bytes"
               max_line_bytes ));
      loop ()
    | `Line line ->
      let line = String.trim line in
      if line <> "" then begin
        match Wire.parse_request line with
        | Error (kind, msg, id) -> send conn (Wire.Failed (id, kind, msg))
        | Ok request ->
          Engine.submit_async ~client:conn.cid t.engine request
            ~reply:(send conn)
      end;
      loop ()
  in
  Fun.protect ~finally:(fun () -> close_conn t conn) loop

(* ------------------------------------------------------------------ *)
(* Listener.                                                           *)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (* A short select timeout keeps shutdown latency bounded without
         burning CPU: the stop flag is polled between waits. *)
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
        (match Unix.accept ~cloexec:true t.listen_fd with
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          ()
        | exception Unix.Unix_error _ when Atomic.get t.stop_flag -> ()
        | fd, _ ->
          let conn =
            {
              cid = Atomic.fetch_and_add t.next_cid 1;
              fd;
              oc = Unix.out_channel_of_descr fd;
              wlock = Mutex.create ();
              closed = false;
              thread = None;
            }
          in
          Mutex.lock t.conns_lock;
          Hashtbl.replace t.conns conn.cid conn;
          Mutex.unlock t.conns_lock;
          conn.thread <- Some (Thread.create (fun () -> serve_conn t conn) ()));
        loop ()
    end
  in
  loop ()

let listen_socket address =
  match address with
  | Unix_socket path ->
    (match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
    | _ -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    fd

let start ?config ~db address =
  let listen_fd = listen_socket address in
  let t =
    {
      engine = Engine.create ?config db;
      address;
      listen_fd;
      stop_flag = Atomic.make false;
      conns = Hashtbl.create 32;
      conns_lock = Mutex.create ();
      next_cid = Atomic.make 0;
      accept_thread = None;
      drained = false;
      drain_lock = Mutex.create ();
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  Log.info (fun f -> f "listening on %a" pp_address (bound_address t));
  t

let request_stop t = Atomic.set t.stop_flag true

(* Shutdown sequence: stop accepting, drain the engine (every queued
   session still gets its reply written to its still-open connection),
   then wake and close the remaining readers. *)
let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  Mutex.lock t.drain_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.drain_lock)
    (fun () ->
      if not t.drained then begin
        t.drained <- true;
        t.accept_thread <- None;
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        (match t.address with
        | Unix_socket path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
        | Tcp _ -> ());
        Engine.stop t.engine;
        let conns =
          Mutex.lock t.conns_lock;
          let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
          Mutex.unlock t.conns_lock;
          cs
        in
        List.iter (fun c -> close_conn t c) conns;
        List.iter
          (fun c -> match c.thread with Some th -> Thread.join th | None -> ())
          conns;
        Log.info (fun f -> f "drained and stopped")
      end)

let stop t =
  request_stop t;
  wait t
