(* serve-zipf: a load generator against a separate `ppr serve` process
   on a Unix socket.

   One generator process, one event loop, one connection. Latency is
   measured open loop: requests are sent on a fixed-rate schedule
   whatever the daemon does, and each is timed from the moment it was
   due, so a stall also shows in the latency of the requests queued
   behind it. Throughput is measured closed loop, with a fixed number of
   requests in flight, so it is the daemon's own rate. Both are taken
   over the phases' quiet windows, the stretches in which the host stole
   least CPU time from this machine (see [quiet_windows]). The mix exercises
   the wire, canonicalization, cost-aware admission, the plan-cache LRU
   (about 4x more template structures than cache slots), batching and
   pagination; per-query execution is small, so per-request overhead
   and queueing dominate. *)

open Common
module Rng = Graphlib.Rng
module Encode = Conjunctive.Encode
module Generators = Graphlib.Generators
module Wire = Serve.Wire

(* ------------------------------------------------------------------ *)
(* Configuration: the daemon flags and the offered rates.              *)

let cache_capacity = 32
let pool_size = 4 * cache_capacity
let zipf_s = 1.0
let page_size = 400
let burst = 4
let max_cost_log2 = 26.0
let p99_limit_ms = 100.0

(* A run is invalid when the generator itself sent later than this at
   p99 (it measures 2-4 ms on a 2-core runner at 140/s). *)
let lag_limit_ms = 20.0

(* Events in flight during the closed-loop throughput phase: enough to
   keep every worker busy with the next request queued behind it. *)
let in_flight ~workers = 4 * workers

(* Offered rates, requests per second. [high] sits well below the
   capacity of a 2-core runner (daemon and generator together), [low]
   at half of it; the ladder is fixed and geometric (5% steps) and
   spans that capacity. *)
let rate_low = 70.0
let rate_high = 140.0
let ladder = Array.init 28 (fun i -> 300.0 *. (1.05 ** float_of_int i))

let daemon_flags ~workers =
  [
    "--workers"; string_of_int workers;
    "--plan-cache"; string_of_int cache_capacity;
    "--max-cost-log2"; Printf.sprintf "%g" max_cost_log2;
    "--queue-depth"; "100000";
    (* Room for every pagination session the ladder's overloaded rungs
       park, so a typed cursor-expired means a lost cursor, not load. *)
    "--cursor-capacity"; "4096";
  ]

(* ------------------------------------------------------------------ *)
(* The request mix.                                                    *)

type cls = Template | Burst | Page | Cold | Shed

let cls_name = function
  | Template -> "template"
  | Burst -> "burst"
  | Page -> "page"
  | Cold -> "cold"
  | Shed -> "shed"

type structure = { cq : Cq.t; mutable reference : answer option }

let reference_of cq =
  let o = Ppr_core.Driver.run Ppr_core.Driver.Bucket_elimination db cq in
  match o.Ppr_core.Driver.result with
  | Some r -> shape ~free:cq.Cq.free r
  | None -> failwith "reference run aborted"

let reference s =
  match s.reference with
  | Some a -> a
  | None ->
    let a = reference_of s.cq in
    s.reference <- Some a;
    a

let random_coloring ~rng ~n ~density ~mode =
  let m = max 1 (min (int_of_float (density *. float_of_int n)) (n * (n - 1) / 2)) in
  let g = Generators.random ~rng ~n ~m in
  Encode.coloring_query_of_graph ~mode ~rng:(Rng.split rng) g

(* Templates and never-seen queries: small random 3-COLOR queries of
   one size, alternately Boolean and 25%-free. The templates and their
   Zipf ranks are the same for every seed, because the few structures
   Zipf makes popular set the typical request's cost. The seed draws
   the renamings, the class and Zipf draws, and the never-seen queries. *)
let small_coloring rng_seed i =
  let rng = Rng.make rng_seed in
  let mode = if i mod 2 = 0 then Encode.Boolean else Encode.Fraction 0.25 in
  { cq = random_coloring ~rng ~n:10 ~density:1.5 ~mode; reference = None }

let template i = small_coloring (1_000_003 + i) i

(* One fresh graph per cold request: a cold request costs a compile
   more than a warm one. *)
let cold ~seed i = small_coloring ((seed * 7_000_003) + 99_991 + i) i

(* Large answers for pagination: all-free paths and augmented paths. *)
let page_structures () =
  Array.map
    (fun g ->
      { cq = Encode.coloring_query_of_graph ~mode:(Encode.Fraction 1.0) ~rng:(Rng.make 5) g;
        reference = None })
    [| Generators.path 9; Generators.path 10; Generators.path 11;
       Generators.augmented_path 4; Generators.augmented_path 5 |]

(* Over-cost cross products: disjoint all-free edges, estimate 6^k. *)
let shed_structure k =
  let atoms =
    List.init k (fun i -> { Cq.rel = "edge"; vars = [ 2 * i; (2 * i) + 1 ] })
  in
  { cq = Cq.make ~atoms ~free:(List.init (2 * k) Fun.id); reference = None }

let shed_structures () = Array.init 3 (fun i -> shed_structure (12 + i))

(* Fresh variable names and a shuffled atom order: an isomorphic
   instantiation of the template, as a different client would send. *)
let render ~rng (cq : Cq.t) =
  let vars = Cq.vars cq in
  let names = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace names v (Printf.sprintf "X%d_%d" v (Rng.int rng 100000)))
    vars;
  let atoms = Array.of_list cq.Cq.atoms in
  Rng.shuffle rng atoms;
  text_of ~names:(Hashtbl.find names) { cq with Cq.atoms = Array.to_list atoms }

type mix = {
  seed : int;
  templates : structure array;
  zipf_cdf : float array;
  pages : structure array;
  sheds : structure array;
  mutable cold_next : int;
}

let make_mix ~seed =
  let templates = Array.init pool_size template in
  let weights = Array.init pool_size (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  let zipf_cdf = Array.map (fun w -> acc := !acc +. (w /. total); !acc) weights in
  { seed; templates; zipf_cdf; pages = page_structures (); sheds = shed_structures ();
    cold_next = 0 }

let zipf_pick mix rng =
  let u = Rng.float rng 1.0 in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if mix.zipf_cdf.(mid) < u then find (mid + 1) hi else find lo mid
  in
  mix.templates.(find 0 (Array.length mix.templates - 1))

(* An event: one scheduled send of [count] identical requests. *)
type event = { cls : cls; structure : structure; text : string; count : int }

let next_event mix rng =
  let u = Rng.float rng 1.0 in
  if u < 0.70 then
    let s = zipf_pick mix rng in
    { cls = Template; structure = s; text = render ~rng s.cq; count = 1 }
  else if u < 0.80 then
    let s = zipf_pick mix rng in
    { cls = Burst; structure = s; text = render ~rng s.cq; count = burst }
  else if u < 0.90 then
    let s = Rng.pick_array rng mix.pages in
    { cls = Page; structure = s; text = render ~rng s.cq; count = 1 }
  else if u < 0.95 then begin
    let i = mix.cold_next in
    mix.cold_next <- i + 1;
    let s = cold ~seed:mix.seed i in
    { cls = Cold; structure = s; text = render ~rng s.cq; count = 1 }
  end
  else
    let s = Rng.pick_array rng mix.sheds in
    { cls = Shed; structure = s; text = render ~rng s.cq; count = 1 }

(* Every structure of the mix must fall on the right side of the cost
   ceiling, or the shed class would not be what it claims. Checked with
   the daemon's own estimator. *)
let check_admission mix =
  let adm = Serve.Admission.create () in
  let estimate (s : structure) =
    let canon = Hypergraphs.Canon.canonicalize s.cq in
    (Serve.Admission.estimate adm db
       ~key:(Serve.Plan_cache.key_of ~canon ~meth:"")
       canon.Hypergraphs.Canon.query)
      .Serve.Admission.estimate_log2
  in
  let admitted =
    Array.to_list mix.templates @ Array.to_list mix.pages
    @ List.init 20 (cold ~seed:mix.seed)
  in
  List.iter
    (fun s ->
      if estimate s > max_cost_log2 then failwith "a served query prices over the ceiling")
    admitted;
  Array.iter
    (fun s ->
      if estimate s <= max_cost_log2 then failwith "a cross product prices under the ceiling")
    mix.sheds

(* ------------------------------------------------------------------ *)
(* The daemon.                                                         *)

type daemon = { pid : int; path : string  (** its socket *) }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* One blocking request/response; only used while nothing else is in
   flight on [fd]. *)
let request_sync fd line =
  write_all fd (line ^ "\n");
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> String.sub (Buffer.contents buf) 0 i
    | None ->
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then failwith "daemon closed the connection";
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ()

(* Start `ppr serve` on the socket [path], logging to [path].log, and
   wait until it answers a ping. *)
let start_daemon ~ppr ~path ~workers =
  (try Sys.remove path with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (path ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    Array.of_list ([ ppr; "serve"; "--socket"; path ] @ daemon_flags ~workers)
  in
  let pid = Unix.create_process ppr argv devnull log log in
  Unix.close devnull;
  Unix.close log;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match connect path with
    | Some fd ->
      let reply = request_sync fd {|{"op":"ping","id":0}|} in
      Unix.close fd;
      if not (String.length reply > 0) then failwith "daemon: bad ping"
    | None ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        failwith "daemon did not start"
      end;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during start");
      Unix.sleepf 0.005;
      wait ()
  in
  wait ();
  { pid; path }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if now () > deadline then (
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid))
      else (
        Unix.sleepf 0.01;
        reap ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  try Sys.remove d.path with Sys_error _ -> ()

let stats fd =
  match Serve.Jsonl.parse (request_sync fd {|{"op":"stats","id":"stats"}|}) with
  | Ok v -> fun name ->
    (match Wire.field v name with
     | Some (Telemetry.Json.Int n) -> float_of_int n
     | Some (Telemetry.Json.Float f) -> f
     | _ -> 0.0)
  | Error e -> failwith ("stats: " ^ e)

(* ------------------------------------------------------------------ *)
(* The open loop.                                                      *)

type reply = {
  r_cls : cls;
  r_due : float;
  r_latency : float;  (** seconds from due time to reply *)
  r_ok : bool;  (** typed as expected and (for answers) correct so far *)
  r_cache_hit : bool;
  r_batched : bool;
  r_queue : float;
  r_compile : float;
  r_exec : float;
  r_rungs : int;
  r_bytes : int;
  r_kind : string;  (** "ok" or the error kind *)
  r_rows : int list list;  (** kept only where [keep_rows] asks *)
  r_cardinality : int;
}

type pending = {
  p_cls : cls;
  p_structure : structure;
  p_text : string;
  p_due : float;
  p_session : int;  (** shared by the pages of one paginated answer *)
}

(* A stretch of a phase, from [lo] to [hi] (absolute times), and the
   share of the machine's CPU time stolen in it. *)
type window = { lo : float; hi : float; stolen : float }

(* How long a steal window lasts: long enough for several clock ticks
   of the machine's CPUs, short enough that a host's busy spells and
   quiet spells fall in different windows. *)
let window_s = 0.1

type phase_result = {
  replies : reply list;
  lags : (float * float) list;  (** due time, and send time minus due time (s) *)
  sessions : (structure * int * int * int) list;
      (** completed whole answers: structure, row digest, rows,
          cardinality *)
  missing : int;
  late_tail : float;  (** p50 latency of the last quarter of sends *)
  windows : window list;  (** the phase cut into steal windows *)
}

type conn = { fd : Unix.file_descr; inbuf : Buffer.t }

let field_float v name =
  match Wire.field v name with
  | Some (Telemetry.Json.Float f) -> f
  | Some (Telemetry.Json.Int n) -> float_of_int n
  | _ -> 0.0

let field_bool v name =
  match Wire.field v name with Some (Telemetry.Json.Bool b) -> b | _ -> false

let rows_of v =
  match Wire.field v "answers" with
  | Some (Telemetry.Json.List rows) ->
    List.map
      (function
        | Telemetry.Json.List cells ->
          List.map (function Telemetry.Json.Int n -> n | _ -> -1) cells
        | _ -> [])
      rows
  | _ -> []

(* An order-independent digest of a row multiset, so the generator can
   check answers without holding them. *)
let digest rows =
  List.fold_left
    (fun acc row -> acc + List.fold_left (fun h v -> (h * 1_000_003) + v + 1) 17 row)
    0 rows

let query_line ~id ?cursor (p : pending) =
  let extra =
    match (p.p_cls, cursor) with
    | Page, None -> Printf.sprintf {|,"limit":%d|} page_size
    | Page, Some c -> Printf.sprintf {|,"limit":%d,"cursor":%S|} page_size c
    | _ -> {|,"max_answers":10000|}
  in
  Printf.sprintf {|{"op":"query","id":%d,"query":%S%s}|} id p.p_text extra

(* Where [key] ends in [line], if it occurs. Allocates nothing: it runs
   on every reply inside the timed loop. *)
let after line key =
  let n = String.length line and k = String.length key in
  let rec matches i j = j = k || (line.[i + j] = key.[j] && matches i (j + 1)) in
  let rec go i =
    if i + k > n then None else if matches i 0 then Some (i + k) else go (i + 1)
  in
  go 0

(* The two fields the loop needs before a reply is fully parsed: the
   echoed id (responses lead with it) and a continuation token. *)
let reply_id line =
  match after line {|{"id":|} with
  | None -> -1
  | Some i ->
    let j = ref i in
    while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
    Option.value (int_of_string_opt (String.sub line i (!j - i))) ~default:(-1)

let next_cursor line =
  match after line {|"next_cursor":"|} with
  | None -> None
  | Some i -> Some (String.sub line i (String.index_from line i '"' - i))

(* How a phase sends: [Open rate] on a fixed schedule of [rate] slots
   per second whatever the daemon does (a burst of k requests takes k
   slots); [Closed n] keeps [n] events in flight, sending the next as
   soon as a reply frees a place, so its rate is the daemon's. *)
type schedule = Open of float | Closed of int

(* Run one phase of [duration] seconds, then wait for every reply (at
   most [drain] seconds). The loop only stamps each reply and follows
   continuation tokens; replies are parsed and checked after the phase,
   so the generator's own work stays out of the latencies it measures.
   A request is timed from its due time (closed loop: its send time).
   [on_send] sees each request line as it leaves; the first [keep_rows]
   answers keep their rows. *)
let run_phase ?(on_send = fun _ -> ()) ?(keep_rows = 0) ~conn ~schedule ~duration ~drain mix
    rng =
  let pending : (int, pending) Hashtbl.t = Hashtbl.create 1024 in
  let received = ref [] and lags = ref [] in
  let next_id = ref 1 in
  let send ~due ?cursor p =
    let id = !next_id in
    incr next_id;
    let line = query_line ~id ?cursor p in
    Hashtbl.replace pending id { p with p_due = due };
    let t = now () in
    write_all conn.fd (line ^ "\n");
    on_send line;
    t
  in
  let handle_line ~t line =
    let id = reply_id line in
    match Hashtbl.find_opt pending id with
    | None -> ()
    | Some p ->
      Hashtbl.remove pending id;
      received := (p, t, line) :: !received;
      if p.p_cls = Page then
        Option.iter (fun c -> ignore (send ~due:t ~cursor:c p)) (next_cursor line)
  in
  let chunk = Bytes.create 65536 in
  let poll timeout =
    match Unix.select [ conn.fd ] [] [] (Float.max 0.0 timeout) with
    | [], _, _ -> ()
    | _ ->
      let t = now () in
      let n = Unix.read conn.fd chunk 0 (Bytes.length chunk) in
      if n = 0 then failwith "daemon closed the connection";
      Buffer.add_subbytes conn.inbuf chunk 0 n;
      let lines = String.split_on_char '\n' (Buffer.contents conn.inbuf) in
      let rec consume = function
        | [ last ] ->
          Buffer.clear conn.inbuf;
          Buffer.add_string conn.inbuf last
        | line :: rest ->
          handle_line ~t line;
          consume rest
        | [] -> ()
      in
      consume lines
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let windows = ref [] and window_start = ref (now (), cpu_ticks ()) in
  let tick () =
    let t0, c0 = !window_start and t = now () in
    if t -. t0 >= window_s then begin
      let c = cpu_ticks () in
      windows := { lo = t0; hi = t; stolen = steal_share c0 c } :: !windows;
      window_start := (t, c)
    end
  in
  let start = now () +. 0.01 in
  let stop = start +. duration in
  (* Send event [k] of the phase, due at [due]. *)
  let send_event k ~due =
    let e = next_event mix rng in
    for _ = 1 to e.count do
      let t_sent =
        send ~due
          { p_cls = e.cls; p_structure = e.structure; p_text = e.text; p_due = due;
            p_session = k }
      in
      lags := (due, t_sent -. due) :: !lags
    done;
    e.count
  in
  (match schedule with
   | Open rate ->
     let slots = int_of_float (rate *. duration) in
     let rec loop slot k =
       if slot < slots then begin
         let due = start +. (float_of_int slot /. rate) in
         tick ();
         let t = now () in
         if t >= due then loop (slot + send_event k ~due) (k + 1)
         else begin
           poll (due -. t);
           loop slot k
         end
       end
     in
     loop 0 0
   | Closed in_flight ->
     let rec loop k =
       tick ();
       let t = now () in
       if t < stop then
         if Hashtbl.length pending < in_flight then begin
           ignore (send_event k ~due:t);
           loop (k + 1)
         end
         else begin
           poll (stop -. t);
           loop k
         end
     in
     loop 0);
  let drain_deadline = now () +. drain in
  while Hashtbl.length pending > 0 && now () < drain_deadline do
    poll (drain_deadline -. now ())
  done;
  let missing = Hashtbl.length pending in
  let replies = ref [] and sessions = ref [] in
  let pages = Hashtbl.create 64 in
  List.iteri
    (fun i ((p : pending), t, line) ->
      let v = match Serve.Jsonl.parse line with Ok v -> v | Error _ -> Telemetry.Json.Null in
      let status = match Wire.field v "status" with Some (Telemetry.Json.String s) -> s | _ -> "" in
      let kind =
        if status = "ok" then "ok"
        else match Wire.field v "kind" with Some (Telemetry.Json.String k) -> k | _ -> "?"
      in
      let expected_kind = if p.p_cls = Shed then "shed-cost" else "ok" in
      let rows = rows_of v in
      let r =
        {
          r_cls = p.p_cls;
          r_due = p.p_due;
          r_latency = t -. p.p_due;
          r_ok = kind = expected_kind;
          r_cache_hit =
            (match Wire.field v "cache" with Some (Telemetry.Json.String "hit") -> true | _ -> false);
          r_batched = field_bool v "batched";
          r_queue = field_float v "queue_seconds";
          r_compile = field_float v "compile_seconds";
          r_exec = field_float v "exec_seconds";
          r_rungs = int_of_float (field_float v "rungs");
          r_bytes = String.length line + 1;
          r_kind = kind;
          r_rows = (if i < keep_rows then rows else []);
          r_cardinality = int_of_float (field_float v "cardinality");
        }
      in
      replies := r :: !replies;
      if kind = "ok" && p.p_cls <> Shed then
        if p.p_cls = Page then begin
          let d, c = Option.value (Hashtbl.find_opt pages p.p_session) ~default:(0, 0) in
          let d = d + digest rows and c = c + List.length rows in
          match Wire.field v "next_cursor" with
          | Some (Telemetry.Json.String _) -> Hashtbl.replace pages p.p_session (d, c)
          | _ ->
            Hashtbl.remove pages p.p_session;
            sessions := (p.p_structure, d, c, c) :: !sessions
        end
        else
          sessions :=
            (p.p_structure, digest rows, List.length rows, r.r_cardinality) :: !sessions)
    (List.rev !received);
  let replies = !replies in
  let last_quarter =
    let cut = start +. (0.75 *. duration) in
    List.filter_map (fun r -> if r.r_due >= cut then Some r.r_latency else None) replies
  in
  { replies; lags = !lags; sessions = !sessions; missing;
    late_tail = median last_quarter; windows = List.rev !windows }

(* Post-hoc answer check: every whole answer (pages concatenated) must
   match the bucket-elimination reference in rows and cardinality. *)
let wrong_answers phase =
  List.length
    (List.filter
       (fun (s, dig, count, card) ->
         let expected = reference s in
         card <> expected.cardinality
         || count <> List.length expected.rows
         || dig <> digest expected.rows)
       phase.sessions)

let latencies_ms phase = List.map (fun r -> 1000.0 *. r.r_latency) phase.replies

let p99_ms phase = quantile (latencies_ms phase) 0.99

(* A percentile of a phase as the median of its value over [windows]
   consecutive stretches of the schedule: a host stall that lands in
   one stretch moves that stretch's tail, not the reported one. *)
let windowed phase ~windows q =
  let first = List.fold_left (fun a r -> Float.min a r.r_due) infinity phase.replies in
  let last = List.fold_left (fun a r -> Float.max a r.r_due) neg_infinity phase.replies in
  let width = (last -. first) /. float_of_int windows in
  median
    (List.init windows (fun w ->
         let lo = first +. (width *. float_of_int w) in
         let hi = if w = windows - 1 then infinity else lo +. width in
         quantile
           (List.filter_map
              (fun r -> if r.r_due >= lo && r.r_due < hi then Some (1000.0 *. r.r_latency) else None)
              phase.replies)
           q))

(* A rung passes when its p99 meets the limit and the backlog did not
   grow: the last quarter of sends saw no worse a median than the
   limit, and every reply arrived. *)
let rung_passes phase =
  phase.missing = 0 && p99_ms phase <= p99_limit_ms
  && 1000.0 *. phase.late_tail <= p99_limit_ms

(* ------------------------------------------------------------------ *)
(* Runs.                                                               *)

(* One timed setup: the mix, its reference answers, the admission
   check, and a daemon on [path] that answers a ping. *)
let setup ~seed ~ppr ~path ~workers =
  time (fun () ->
      let mix = make_mix ~seed in
      Array.iter (fun s -> ignore (reference s)) mix.templates;
      Array.iter (fun s -> ignore (reference s)) mix.pages;
      check_admission mix;
      (mix, start_daemon ~ppr ~path ~workers))

let connect_exn path =
  match connect path with Some fd -> fd | None -> failwith "cannot connect to the daemon"

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  unexpected : (string, int) Hashtbl.t;  (** failure kind -> count *)
}

let account tally phase =
  let bad = List.filter (fun r -> not r.r_ok) phase.replies in
  let note kind n =
    if n > 0 then
      Hashtbl.replace tally.unexpected kind
        (n + Option.value (Hashtbl.find_opt tally.unexpected kind) ~default:0)
  in
  List.iter (fun r -> note (cls_name r.r_cls ^ ":" ^ r.r_kind) 1) bad;
  note "missing" phase.missing;
  let bad = List.length bad in
  let wrong = wrong_answers phase in
  note "wrong-answer" wrong;
  tally.attempted <- tally.attempted + List.length phase.replies + phase.missing;
  tally.failed <- tally.failed + bad + phase.missing + wrong;
  tally.wrong <- tally.wrong + wrong

(* Timed runs: rounds of an open-loop and a closed-loop phase, and the
   setups after each round. *)
let rounds = 8
let setups_per_round = 2

(* The quiet windows of some phases: those where the host stole no more
   than in the least disturbed twentieth of all their windows, counting for
   each window the most it stole in the window or either neighbour
   (stolen time also slows the window after it, while the pipeline
   refills, and requests that straddle a window's edge). Where the host
   stole nothing, every window is quiet. On a shared host, stolen time
   stalls serve work: a request needs the generator, the daemon's reader
   and a worker to run in turn, and each can wait for a virtual CPU.
   Over one run, the per-phase stolen share explained nearly all of the
   phases' spread (correlation 0.8-0.99). *)
let quiet_quantile = 0.05

let quiet_windows phases =
  let around p =
    let a = Array.of_list p.windows in
    let stolen i = if i < 0 || i >= Array.length a then 0.0 else a.(i).stolen in
    List.init (Array.length a) (fun i ->
        (a.(i), Float.max (stolen (i - 1)) (Float.max (stolen i) (stolen (i + 1)))))
  in
  let scored = List.concat_map around phases in
  let cut = quantile (List.map snd scored) quiet_quantile in
  List.filter_map (fun (w, s) -> if s <= cut then Some w else None) scored

let within windows t = List.exists (fun w -> w.lo <= t && t < w.hi) windows
let span windows = Float.max 1e-9 (sum (List.map (fun w -> w.hi -. w.lo) windows))

(* The share of CPU time stolen over some windows. *)
let stolen_in windows = sum (List.map (fun w -> w.stolen *. (w.hi -. w.lo)) windows) /. span windows
let arrival r = r.r_due +. r.r_latency

(* Requests sent and answered inside quiet windows. *)
let quiet_replies windows phases =
  List.concat_map
    (fun p -> List.filter (fun r -> within windows r.r_due && within windows (arrival r)) p.replies)
    phases

(* Correct replies per second of quiet window. *)
let quiet_rate windows phases =
  let answered =
    List.concat_map (fun p -> List.filter (fun r -> r.r_ok && within windows (arrival r)) p.replies) phases
  in
  float_of_int (List.length answered) /. span windows

let phase_rng ~seed name = Rng.make ((seed * 65_537) + Hashtbl.hash name)

let run_load ~seed ~seconds ~trace ~ppr ~run_dir =
  let workers = nproc () in
  let path = Filename.concat run_dir "ppr-bench.sock" in
  let (mix, daemon), first_setup = setup ~seed ~ppr ~path ~workers in
  let tally = { attempted = 0; failed = 0; wrong = 0; unexpected = Hashtbl.create 8 } in
  Fun.protect ~finally:(fun () -> stop_daemon daemon) @@ fun () ->
  (* setup_s is the median of setups spread over the run (see
     Common.setup_rounds): the served daemon's, then [setups_per_round]
     after each round of phases, which start a second daemon on its own
     socket while the served one is idle. One setup lasts about 0.15 s,
     too short for a single one to average out the host's jitter. *)
  let setup_times = ref [ first_setup ] in
  let another_setup () =
    Gc.full_major ();
    for _ = 1 to setups_per_round do
      let (_, d), t =
        setup ~seed ~ppr ~path:(Filename.concat run_dir "ppr-setup.sock") ~workers
      in
      stop_daemon d;
      setup_times := t :: !setup_times
    done
  in
  let conn = { fd = connect_exn path; inbuf = Buffer.create 65536 } in
  let control = connect_exn path in
  let phase ?on_send ?keep_rows name ~schedule ~duration =
    let p =
      run_phase ?on_send ?keep_rows ~conn ~schedule ~duration ~drain:10.0 mix
        (phase_rng ~seed name)
    in
    account tally p;
    p
  in
  let budget_end = now () +. seconds in
  ignore (phase "warmup" ~schedule:(Open rate_low) ~duration:2.0);
  let lags_ms p = List.map (fun (_, l) -> 1000.0 *. l) p.lags in
  let result metrics =
    let correct = tally.wrong = 0 in
    Hashtbl.iter (fun kind n -> Printf.printf "failed: %s x%d\n" kind n) tally.unexpected;
    (correct, tally.attempted, tally.failed, metrics)
  in
  (* The generator's own lateness, over the sends the reported latency
     comes from: those due in quiet windows. *)
  let lag_check phases =
    let windows = quiet_windows phases in
    let lags =
      List.concat_map
        (fun p -> List.filter_map (fun (due, l) -> if within windows due then Some (1000.0 *. l) else None) p.lags)
        phases
    in
    let lag = quantile lags 0.99 in
    if lag > lag_limit_ms then
      Printf.printf "INVALID: the generator ran %.1f ms late at p99 (limit %.1f ms)\n" lag
        lag_limit_ms;
    lag <= lag_limit_ms
  in
  if not trace then begin
    (* The open-loop and closed-loop phases alternate over [rounds]
       rounds, with setups after each, so that a slow stretch of the host
       lands in some rounds only. Latency and throughput come from the
       quiet windows of their phases (see [quiet_windows]). *)
    let duration = (seconds -. 2.0) /. float_of_int (2 * rounds) in
    let rec go i acc =
      if i = rounds then List.rev acc
      else begin
        let high = phase (Printf.sprintf "high%d" i) ~schedule:(Open rate_high) ~duration in
        let closed =
          phase (Printf.sprintf "closed%d" i) ~schedule:(Closed (in_flight ~workers)) ~duration
        in
        another_setup ();
        go (i + 1) ((high, closed) :: acc)
      end
    in
    let highs, closeds = List.split (go 0 []) in
    List.iteri
      (fun i (high, closed) ->
        Printf.printf
          "round %d: latency_p50_ms %.3f (%.0f%% stolen) queries_per_s %.1f (%.0f%% stolen)\n" i
          (quantile (latencies_ms high) 0.5) (100.0 *. stolen_in high.windows)
          (quiet_rate closed.windows [ closed ]) (100.0 *. stolen_in closed.windows))
      (List.combine highs closeds);
    let open_quiet = quiet_windows highs and closed_quiet = quiet_windows closeds in
    let report name phases windows =
      Printf.printf "%s: %d of %d windows quiet, %.0f%% stolen in them\n" name
        (List.length windows) (List.length (List.concat_map (fun p -> p.windows) phases))
        (100.0 *. stolen_in windows)
    in
    report "open loop" highs open_quiet;
    report "closed loop" closeds closed_quiet;
    let latency_p50 =
      quantile (List.map (fun r -> 1000.0 *. r.r_latency) (quiet_replies open_quiet highs)) 0.5
    in
    let rss = rss_peak_mb (string_of_int daemon.pid) in
    let correct, attempted, failed, metrics =
      result
        [
          metric "setup_s" "s" (median !setup_times);
          metric "queries_per_s" "1/s" (quiet_rate closed_quiet closeds);
          metric "latency_p50_ms" "ms" latency_p50;
          metric "rss_peak_mb" "MB" rss;
        ]
    in
    let on_schedule = lag_check highs in
    Unix.close control;
    (correct && on_schedule, attempted, failed, metrics)
  end
  else begin
    let duration = 0.2 *. seconds in
    let low = phase "low" ~schedule:(Open rate_low) ~duration in
    let before = stats control in
    let lines = ref [] in
    let on_send line = lines := line :: !lines in
    let high = phase ~on_send ~keep_rows:200 "high" ~schedule:(Open rate_high) ~duration in
    let after = stats control in
    let delta name = after name -. before name in
    (* Bisect the fixed ladder with what time is left. A failing rung
       is probed once more and fails only twice over, so that one
       stall of the host does not halve the search interval. *)
    let rung_s = 2.0 in
    let probe mid k =
      rung_passes
        (phase (Printf.sprintf "rung%d-%d" mid k) ~schedule:(Open ladder.(mid)) ~duration:rung_s)
    in
    let rec search lo hi k =
      if hi - lo <= 1 || now () +. rung_s +. 1.0 > budget_end then lo
      else
        let mid = (lo + hi) / 2 in
        if probe mid k || probe mid (k + 100) then search mid hi (k + 1)
        else search lo mid (k + 1)
    in
    let best = search (-1) (Array.length ladder) 0 in
    let max_rate = if best < 0 then ladder.(0) /. 1.05 else ladder.(best) in
    let answered = List.filter (fun r -> r.r_kind = "ok") high.replies in
    let mean_of f = mean (List.map f answered) in
    let class_p50 pred =
      median (List.filter_map (fun r -> if pred r then Some (1000.0 *. r.r_latency) else None) high.replies)
    in
    (* In-process timings of the daemon's public per-request calls, on
       the requests the high phase actually sent. *)
    let sample = List.filteri (fun i _ -> i < 200) !lines in
    let requests =
      List.filter_map
        (fun line ->
          match Wire.parse_request line with
          | Ok (Wire.Query q) -> Some (line, q)
          | _ -> None)
        sample
    in
    let avg f = mean (List.map f requests) in
    let parsed (_, (q : Wire.query)) = (Conjunctive.Parse.query_exn q.Wire.text).Conjunctive.Parse.query in
    let adm = Serve.Admission.create () in
    let decisions = List.map (fun r -> (Ghd.prepare db (parsed r)).Ghd.decision) requests in
    let count d = float_of_int (List.length (List.filter (( = ) d) decisions)) in
    let encode_us =
      let answers =
        List.filteri (fun i _ -> i < 200) answered
        |> List.map (fun r ->
               Wire.Answer
                 ( Telemetry.Json.Int 0,
                   { Wire.cardinality = r.r_cardinality; nonempty = r.r_cardinality > 0;
                     answers = r.r_rows; truncated = false; cache_hit = r.r_cache_hit; batched = r.r_batched;
                     rungs = r.r_rungs; rescued = false; approximate = false;
                     meth = "bucket-elimination"; compile_seconds = r.r_compile;
                     exec_seconds = r.r_exec; queue_seconds = r.r_queue; page = None;
                     next_cursor = None } ))
      in
      mean (List.map (fun a -> micro (fun () -> Wire.response_to_string a)) answers)
    in
    let q_ms = List.map (fun r -> 1000.0 *. r.r_queue) answered in
    let correct, attempted, failed, metrics =
      result
        [
          metric "query.parse_us" "us" (avg (fun (_, q) -> micro (fun () -> Conjunctive.Parse.query q.Wire.text)));
          metric "hypergraph.canon_us" "us" (avg (fun r -> let cq = parsed r in micro (fun () -> Hypergraphs.Canon.canonicalize cq)));
          metric "gate.bounds_us" "us" (avg (fun r -> let cq = parsed r in micro (fun () -> Ghd.bounds db cq)));
          metric "gate.route.bucket" "count" (count Ghd.Bucket);
          metric "gate.route.generic" "count" (count Ghd.Generic);
          metric "gate.route.ghd" "count" (count Ghd.Ghd);
          metric "serve.queue_ms.p50" "ms" (quantile q_ms 0.5);
          metric "serve.queue_ms.p99" "ms" (quantile q_ms 0.99);
          metric "serve.compile_ms" "ms" (1000.0 *. mean_of (fun r -> r.r_compile));
          metric "serve.exec_ms" "ms" (1000.0 *. mean_of (fun r -> r.r_exec));
          metric "serve.overhead_ms" "ms"
            (1000.0 *. mean_of (fun r -> r.r_latency -. r.r_queue -. r.r_compile -. r.r_exec));
          metric "serve.latency_p50_ms.hit" "ms"
            (class_p50 (fun r -> r.r_kind = "ok" && r.r_cls <> Page && r.r_cache_hit));
          metric "serve.latency_p50_ms.miss" "ms"
            (class_p50 (fun r -> r.r_kind = "ok" && r.r_cls <> Page && not r.r_cache_hit));
          metric "serve.latency_p50_ms.page" "ms" (class_p50 (fun r -> r.r_cls = Page));
          metric "serve.latency_p50_ms.shed" "ms" (class_p50 (fun r -> r.r_cls = Shed));
          metric "serve.plan_cache.hit_rate" "ratio"
            (delta "cache_hits" /. Float.max 1.0 (delta "cache_hits" +. delta "cache_misses"));
          metric "serve.plan_cache.evictions" "count" (delta "cache_evictions");
          metric "serve.admission_us" "us"
            (avg (fun r ->
                 let canon = Hypergraphs.Canon.canonicalize (parsed r) in
                 let key = Serve.Plan_cache.key_of ~canon ~meth:"" in
                 micro (fun () -> Serve.Admission.estimate adm db ~key canon.Hypergraphs.Canon.query)));
          metric "serve.batched_frac" "ratio" (delta "batched" /. Float.max 1.0 (delta "answers"));
          metric "serve.shed_cost" "count" (delta "shed_cost");
          metric "serve.shed_quota" "count" (delta "shed_quota");
          metric "serve.overloaded" "count"
            (float_of_int (List.length (List.filter (fun r -> r.r_kind = "overloaded") high.replies)));
          metric "serve.expired" "count" (delta "expired");
          metric "serve.cursor_evictions" "count" (delta "cursor_evictions");
          metric "wire.parse_us" "us" (avg (fun (line, _) -> micro (fun () -> Wire.parse_request line)));
          metric "wire.encode_us" "us" encode_us;
          metric "wire.response_bytes" "bytes"
            (mean (List.map (fun r -> float_of_int r.r_bytes) high.replies));
          metric "supervise.rungs_per_query" "count" (mean_of (fun r -> float_of_int r.r_rungs));
          metric "adapt.feedback_samples" "count" (after "feedback_samples");
          metric "loadgen.lag_p99_ms" "ms" (quantile (lags_ms high) 0.99);
          (* trace.overhead is not reported (0): `ppr serve` has no
             telemetry sink, so nothing in the daemon is traced. *)
          metric "latency_p95_ms" "ms" (windowed high ~windows:2 0.95);
          metric "latency_p99_ms" "ms" (windowed high ~windows:2 0.99);
          metric "latency_p99_ms.low" "ms" (p99_ms low);
          metric "max_rate_qps" "1/s" max_rate;
          metric "failed_frac" "ratio"
            (float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
        ]
    in
    Unix.close control;
    (correct && lag_check [ high ], attempted, failed, metrics)
  end
