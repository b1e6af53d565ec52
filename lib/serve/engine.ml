module Json = Telemetry.Json
module Metrics = Telemetry.Metrics
module Driver = Ppr_core.Driver

type config = {
  workers : int;
  queue_depth : int;
  cache_capacity : int;
  cache_file : string option;
  feedback_file : string option;
  planner : string option;
  warm : string list;
  default_deadline_ms : int option;
  max_deadline_ms : int;
  default_max_answers : int;
  max_answers_cap : int;
  cursor_capacity : int;
  max_cost_log2 : float option;
  max_queue_cost_log2 : float option;
  client_quota : int option;
  batching : bool;
  budget : Supervise.Budget.t;
}

let default_config =
  {
    workers = 4;
    queue_depth = 64;
    cache_capacity = 512;
    cache_file = None;
    feedback_file = None;
    planner = None;
    warm = [];
    default_deadline_ms = None;
    max_deadline_ms = 300_000;
    default_max_answers = 100;
    max_answers_cap = 10_000;
    cursor_capacity = 64;
    max_cost_log2 = None;
    max_queue_cost_log2 = None;
    client_quota = None;
    batching = true;
    budget = Supervise.Budget.default;
  }

(* What a worker will do for a request — resolved AT ADMISSION, on the
   submitting thread. Parse errors, unknown methods and bad chaos specs
   are answered immediately without consuming a queue slot, and the
   canonical key is in hand early enough for cost-aware admission and
   batch coalescing to use it. *)
type work =
  | Continuation of string  (** checked-out pagination token *)
  | Execute of {
      cq : Conjunctive.Cq.t;  (** canonical query *)
      meth : Driver.meth;  (** resolved, planner-substituted *)
      key : string;  (** plan-cache key *)
      chaos : Supervise.Chaos.t option;
      batch_key : string option;
          (** set iff the session is batch-eligible: identical queued
              requests coalesce under this key *)
      cost_log2 : float option;
          (** structural cost estimate, when a ceiling is configured *)
      cost_units : float;  (** its linear-space backlog contribution *)
    }

(* A coalesced request riding on another job's execution. *)
type waiter = {
  wid : Json.t;
  wreply : Wire.response -> unit;
  wenqueued_at : float;
}

type job = {
  request : Wire.query;
  reply : Wire.response -> unit;
  enqueued_at : float;
  work : work;
  mutable followers : waiter list;
      (** batch followers, newest first; mutated only under the engine
          lock while the job is queued (the batch index entry dies when
          the job is popped, so workers read this race-free) *)
}

(* A paginated session between pages: the half-drained cursor plus what
   the next page's response needs (the free-variable column mapping into
   the cursor's schema, the method label, the original cache verdict,
   the next page index). *)
type parked = {
  pcur : Relalg.Cursor.t;
  pcolumns : int list;
  pmeth : string;
  pcache_hit : bool;
  ppage : int;
}

(* The admission queue is fair per client: each client id owns a FIFO of
   its jobs, and workers drain client queues round-robin ([rotation]
   holds every client with pending work, each exactly once). A client
   flooding the queue therefore delays only its own later requests —
   another client's next job is at most one rotation lap away, never
   behind the flooder's whole backlog. The global bound [queue_depth]
   still applies to the sum, so total memory stays capped. *)
type t = {
  cfg : config;
  db : Conjunctive.Database.t;
  metrics : Metrics.t;
  cache : Driver.compiled Plan_cache.t;
  store : Adapt.Store.t;
  cursors : parked Cursors.t;
  admission : Admission.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  clients : (int, job Queue.t) Hashtbl.t;
  rotation : int Queue.t;
  batch_index : (string, job) Hashtbl.t;
      (** batch key -> the queued job leading that batch; entries are
          removed when the leader is popped, so late identical arrivals
          start a fresh batch instead of racing a running execution *)
  mutable backlog_units : float;
      (** sum of queued jobs' [cost_units] (linear space, exact
          subtraction on dequeue) *)
  mutable queued : int;
  mutable stopped : bool;
  mutable inflight : int;
  mutable warmed : int;
  mutable workers : unit Domain.t array;
}

let metrics t = t.metrics
let cache t = t.cache
let feedback t = t.store
let warmed t = t.warmed

let count t name = Metrics.incr (Metrics.counter t.metrics name)

let log_src = Logs.Src.create "ppr.serve" ~doc:"Query-serving engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Request-level parsing helpers.                                      *)

let method_of_string = function
  | "naive" -> Some (Driver.Naive Ppr_core.Naive.default_search)
  | "straightforward" -> Some Driver.Straightforward
  | "early-projection" -> Some Driver.Early_projection
  | "reordering" -> Some Driver.Reorder
  | "bucket-elimination" -> Some Driver.Bucket_elimination
  | "hybrid" -> Some Driver.Hybrid
  | "wcoj" -> Some Driver.Wcoj
  | "ghd" -> Some Driver.Ghd
  | s -> (
    match String.split_on_char ':' s with
    | [ "minibucket"; i ] -> (
      match int_of_string_opt i with
      | Some i when i > 0 -> Some (Driver.Minibucket i)
      | _ -> None)
    | _ -> None)

(* Daemon-wide planner substitution: with [--planner gradient] (or any
   registered order-search plugin), naive requests using the default
   DP/genetic split keep their DP threshold but search large queries
   with the plugin instead of the genetic pool. ["genetic"] is the
   built-in default and substitutes nothing; explicitly non-default
   naive searches (a client asking for dp or geqo by name) are
   respected. *)
let apply_planner planner meth =
  match (planner, meth) with
  | Some name, Driver.Naive (Ppr_core.Naive.Auto (threshold, _))
    when name <> "genetic" ->
    Driver.Naive (Ppr_core.Naive.Plugin (name, threshold))
  | _ -> meth

let chaos_of_spec spec =
  let int s = int_of_string_opt s in
  let flo s = float_of_string_opt s in
  match String.split_on_char ':' spec with
  | [ "op"; n ] ->
    Option.map (fun n -> Supervise.Chaos.at_operator ~attempts:[ 0 ] n) (int n)
  | [ "tuples"; k ] ->
    Option.map (fun k -> Supervise.Chaos.after_tuples ~attempts:[ 0 ] k) (int k)
  | [ "seed"; s ] ->
    Option.map
      (fun s ->
        Supervise.Chaos.seeded ~attempts:[ 0 ] ~seed:s ~max_operator:32 ())
      (int s)
  | [ "stall"; n; seconds ] -> (
    match (int n, flo seconds) with
    | Some n, Some seconds ->
      Some (Supervise.Chaos.stall_at_operator ~attempts:[ 0 ] ~seconds n)
    | _ -> None)
  | [ "stall-tuples"; k; seconds ] -> (
    match (int k, flo seconds) with
    | Some k, Some seconds ->
      Some (Supervise.Chaos.stall_after_tuples ~attempts:[ 0 ] ~seconds k)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Session execution (worker side).                                    *)

let answer_rows relation free max_answers =
  match free with
  | [] -> ([], false)
  | free ->
    let schema = Relalg.Relation.schema relation in
    let columns = List.map (Relalg.Schema.index schema) free in
    (* Tail-recursive: a client asking for a hundred-thousand-row page
       must not blow the worker's stack. *)
    let rec take n rows acc =
      match (n, rows) with
      | _, [] -> (List.rev acc, false)
      | 0, _ :: _ -> (List.rev acc, true)
      | n, row :: rest ->
        take (n - 1) rest (List.map (Relalg.Tuple.get row) columns :: acc)
    in
    take max_answers (Relalg.Relation.to_sorted_list relation) []

let page_size t (q : Wire.query) =
  min
    (max 1 (Option.value q.Wire.limit ~default:t.cfg.default_max_answers))
    t.cfg.max_answers_cap

(* Pull one page off a (fresh or checked-out) cursor and answer with it.
   More pages pending -> the cursor parks again under a fresh token that
   rides back on [next_cursor]; exhausted or aborted -> the cursor dies
   here. Exactly one response leaves in every case. [exec_started] lets
   the caller start the execution clock before opening the stream, so
   cursor-open work is billed as execution (it is), not compilation. *)
let serve_page t ~id ~cache_hit ~compile_seconds ~queue_seconds ?exec_started
    (p : parked) k =
  let started =
    match exec_started with Some s -> s | None -> Unix.gettimeofday ()
  in
  match Relalg.Cursor.take p.pcur k with
  | tuples ->
    let exhausted = Relalg.Cursor.closed p.pcur in
    let next_cursor =
      if exhausted then None
      else Some (Cursors.park t.cursors { p with ppage = p.ppage + 1 })
    in
    count t "serve.answers";
    let answers =
      match p.pcolumns with
      | [] -> []
      | columns ->
        List.map (fun tup -> List.map (Relalg.Tuple.get tup) columns) tuples
    in
    Wire.Answer
      ( id,
        {
          Wire.cardinality = List.length tuples;
          nonempty = tuples <> [];
          answers;
          truncated = not exhausted;
          cache_hit;
          batched = false;
          rungs = 1;
          rescued = false;
          approximate = false;
          meth = p.pmeth;
          compile_seconds;
          exec_seconds = Unix.gettimeofday () -. started;
          queue_seconds;
          page = Some p.ppage;
          next_cursor;
        } )
  | exception Relalg.Limits.Abort reason ->
    Relalg.Cursor.close p.pcur;
    count t "serve.aborts";
    Wire.Failed
      ( id,
        Wire.Aborted (Relalg.Limits.reason_label reason),
        Relalg.Limits.describe reason )

(* ------------------------------------------------------------------ *)
(* Admission-time classification (submitter side).                      *)

(* The batch key extends the plan-cache key with every request field
   that shapes the answer or its resource envelope; two requests with
   equal batch keys are answerable by one execution. The appended
   fields never contain the separator, so the (arbitrary-byte) cache
   key prefix is recoverable and the encoding stays injective. *)
let batch_key_of (q : Wire.query) key =
  let num = function Some n -> string_of_int n | None -> "" in
  String.concat "|"
    [
      key;
      string_of_bool q.Wire.ladder;
      num q.deadline_ms;
      num q.max_tuples;
      num q.max_total;
      num q.fuel;
      num q.max_answers;
      string_of_int q.seed;
    ]

(* Resolve a query into the work a worker will run, on the submitting
   thread: requests that can never execute (unknown method, bad chaos
   spec, unparsable query) are refused here, before they cost a queue
   slot, and the canonical key is in hand early enough for cost-aware
   admission and batch coalescing to use it. The structural cost
   estimate is computed only when a ceiling is configured; a query the
   estimator cannot price (e.g. one naming an unregistered relation) is
   admitted unpriced and fails in the worker with the error it always
   produced. *)
let classify t (q : Wire.query) : (work, Wire.error_kind * string) result =
  match q.Wire.cursor with
  | Some token -> Ok (Continuation token)
  | None -> (
    match method_of_string q.meth with
    | None ->
      Error (Wire.Bad_request, Printf.sprintf "unknown method %S" q.meth)
    | Some meth -> (
      let chaos =
        match q.chaos with
        | None -> Ok None
        | Some spec -> (
          match chaos_of_spec spec with
          | Some c -> Ok (Some c)
          | None -> Error (Printf.sprintf "bad chaos spec %S" spec))
      in
      match chaos with
      | Error msg -> Error (Wire.Bad_request, msg)
      | Ok chaos -> (
        match Conjunctive.Parse.query q.text with
        | Error e ->
          count t "serve.parse_errors";
          Error
            (Wire.Parse_error, Format.asprintf "%a" Conjunctive.Parse.pp_error e)
        | Ok parsed ->
          let meth = apply_planner t.cfg.planner meth in
          let canon =
            Hypergraphs.Canon.canonicalize parsed.Conjunctive.Parse.query
          in
          let cq = canon.Hypergraphs.Canon.query in
          (* Keyed by the resolved method name (not the request string),
             so a planner substitution never replays an artifact
             compiled by a differently-configured daemon out of a shared
             snapshot. *)
          let key =
            Plan_cache.key_of ~canon ~meth:(Driver.method_name meth)
          in
          let cost_log2 =
            if t.cfg.max_cost_log2 <> None || t.cfg.max_queue_cost_log2 <> None
            then
              (* Memoized under the method-independent structure key:
                 the estimate prices the query, not the route. *)
              let skey = Plan_cache.key_of ~canon ~meth:"" in
              match Admission.estimate t.admission t.db ~key:skey cq with
              | b -> Some b.Admission.estimate_log2
              | exception _ -> None
            else None
          in
          let cost_units =
            match cost_log2 with
            | Some c -> Admission.units_of_log2 c
            | None -> 0.0
          in
          let batch_key =
            (* Streaming sessions park private state between pages and
               chaos requests want their own fault injection: neither
               can ride on another session's execution. *)
            if t.cfg.batching && q.Wire.limit = None && q.Wire.chaos = None
            then Some (batch_key_of q key)
            else None
          in
          Ok (Execute { cq; meth; key; chaos; batch_key; cost_log2; cost_units }))))

(* Classification is total in practice, but it runs planner analysis on
   the submitting (transport) thread — a crash there must become a typed
   refusal, not a dead reader. *)
let classify t q =
  try classify t q
  with e ->
    Error
      ( Wire.Internal,
        Printf.sprintf "admission analysis failed: %s" (Printexc.to_string e)
      )

(* ------------------------------------------------------------------ *)
(* Session execution proper (worker side).                              *)

(* By the time a job reaches a worker its query is parsed, its method
   resolved and its canonical form keyed (see [classify]); the worker
   compiles (through the plan cache) and executes. *)
let run_session t (q : Wire.query) (work : work) ~queue_seconds ~deadline_abs
    =
  let id = q.id in
  match work with
  | Continuation token -> (
    match Cursors.checkout t.cursors token with
    | None ->
      count t "serve.cursor_expired";
      Wire.Failed
        ( id,
          Wire.Cursor_expired,
          Printf.sprintf
            "cursor %S is unknown, already consumed, or was evicted" token )
    | Some parked ->
      (* Continuation pages report the stream's original cache verdict
         and zero compile time: whatever compile happened was paid (and
         reported) when the stream opened. *)
      serve_page t ~id ~cache_hit:parked.pcache_hit ~compile_seconds:0.0
        ~queue_seconds parked (page_size t q))
  | Execute { cq; meth; key; chaos; _ } -> (
    let feedback = Adapt.Store.feedback t.store in
    let observer obs = Adapt.Store.ingest t.store obs in
    (* Compile time is measured inside the miss thunk, so cache hits
       honestly report zero compilation. *)
    let compile_seconds = ref 0.0 in
    let compiled, cache_hit =
      Plan_cache.find_or_add t.cache key (fun () ->
          (* A fixed compile seed keeps the cached artifact
             independent of which request warmed the cache; the
             feedback store corrects the cost model, so a repeat of a
             query whose first run mis-planned recompiles under the
             measured cardinalities once its artifact ages out. *)
          let t0 = Unix.gettimeofday () in
          let c =
            Driver.prepare ~rng:(Graphlib.Rng.make 17) ~feedback meth t.db cq
          in
          compile_seconds := Unix.gettimeofday () -. t0;
          c)
    in
    count t (if cache_hit then "serve.cache.hits" else "serve.cache.misses");
        let budget =
          let b = t.cfg.budget in
          let b =
            match q.max_tuples with
            | Some n -> Supervise.Budget.with_max_cardinality n b
            | None -> b
          in
          let b =
            match q.max_total with
            | Some n -> Supervise.Budget.with_max_total n b
            | None -> b
          in
          match q.fuel with Some n -> Supervise.Budget.with_fuel n b | None -> b
        in
        let remaining =
          Option.map (fun d -> d -. Unix.gettimeofday ()) deadline_abs
        in
        let budget =
          match remaining with
          | Some s -> Supervise.Budget.with_deadline (Float.max 0.0 s) budget
          | None -> budget
        in
        let max_answers =
          min
            (Option.value q.max_answers ~default:t.cfg.default_max_answers)
            t.cfg.max_answers_cap
        in
        let rng = Graphlib.Rng.make (q.seed + 31) in
        match q.Wire.limit with
        | Some _ ->
          (* Paginated streaming: open a cursor over the compiled
             artifact and serve the first page. The supervision ladder
             is bypassed — a parked cursor cannot be retried on another
             rung — and so is per-session telemetry: the cursor outlives
             this session and its later pulls run on whichever worker
             picks up the continuation, while span stacks are
             single-domain. The budget's limits stay armed for the whole
             pagination, so a runaway session still aborts (typed) out
             of a later page. *)
          ignore rng;
          let limits = Supervise.Budget.to_limits budget in
          (match chaos with
          | Some c -> Supervise.Chaos.arm c ~attempt:0 limits
          | None -> ());
          let sctx = Relalg.Ctx.create ~limits () in
          let semijoin =
            match meth with Driver.Minibucket _ -> false | _ -> true
          in
          count t "serve.streams";
          (* The execution clock starts before the stream opens:
             cursor-open work (semijoin reduction, index build) is
             execution, not compilation. *)
          let exec_started = Unix.gettimeofday () in
          let cur = Ppr_core.Exec.stream ~ctx:sctx ~semijoin t.db cq compiled in
          let schema = Relalg.Cursor.schema cur in
          let columns =
            List.map (Relalg.Schema.index schema) cq.Conjunctive.Cq.free
          in
          serve_page t ~id ~cache_hit ~compile_seconds:!compile_seconds
            ~queue_seconds ~exec_started
            {
              pcur = cur;
              pcolumns = columns;
              pmeth = q.meth;
              pcache_hit = cache_hit;
              ppage = 0;
            }
            (page_size t q)
        | None ->
        (* Each session gets its own telemetry context (span stacks are
           single-domain) over the engine's shared, domain-safe metric
           registry — rung histograms and abort counters aggregate
           across all concurrent sessions. *)
        let telemetry = Telemetry.create ~metrics:t.metrics Telemetry.Sink.null in
        Fun.protect ~finally:(fun () -> Telemetry.close telemetry) @@ fun () ->
        let ctx = Relalg.Ctx.create ~telemetry () in
        let finish (outcome : Driver.outcome) ~rungs ~rescued ~approximate =
          match (outcome.Driver.status, outcome.Driver.result) with
          | Driver.Completed, Some relation ->
            count t "serve.answers";
            let answers, truncated =
              answer_rows relation cq.Conjunctive.Cq.free max_answers
            in
            Wire.Answer
              ( id,
                {
                  Wire.cardinality = Relalg.Relation.cardinality relation;
                  nonempty = not (Relalg.Relation.is_empty relation);
                  answers;
                  truncated;
                  cache_hit;
                  batched = false;
                  rungs;
                  rescued;
                  approximate;
                  meth = Driver.method_name outcome.Driver.meth;
                  (* The cache-miss compile plus whatever re-planning
                     the run itself did (the supervisor's replan rung). *)
                  compile_seconds =
                    !compile_seconds +. outcome.Driver.compile_seconds;
                  exec_seconds = outcome.Driver.exec_seconds;
                  queue_seconds;
                  page = None;
                  next_cursor = None;
                } )
          | status, _ ->
            let reason =
              match status with
              | Driver.Aborted a -> a.Driver.reason
              | Driver.Completed ->
                (* Completed without a result cannot happen (the driver
                   always materializes on completion); classify
                   defensively rather than crash the session. *)
                Relalg.Limits.Injected "completed without a result"
            in
            count t "serve.aborts";
            Wire.Failed
              ( id,
                Wire.Aborted (Relalg.Limits.reason_label reason),
                Printf.sprintf "%s after %d attempt(s)"
                  (Relalg.Limits.describe reason)
                  rungs )
        in
        if q.ladder then begin
          let report =
            Supervise.run ~rng ~feedback ~observer ~replan:true ~budget ?chaos
              ~compiled ?overall_deadline_seconds:remaining ~ctx meth t.db cq
          in
          let rungs = List.length report.Supervise.attempts in
          match report.Supervise.result with
          | Some outcome ->
            let approximate =
              List.exists
                (fun a ->
                  a.Supervise.approximate
                  && a.Supervise.outcome.Driver.status = Driver.Completed)
                report.Supervise.attempts
            in
            finish outcome ~rungs ~rescued:report.Supervise.rescued ~approximate
          | None -> (
            count t "serve.aborts";
            match List.rev report.Supervise.attempts with
            | last :: _ ->
              let reason =
                match last.Supervise.outcome.Driver.status with
                | Driver.Aborted a -> a.Driver.reason
                | Driver.Completed -> Relalg.Limits.Injected "unreachable"
              in
              Wire.Failed
                ( id,
                  Wire.Aborted (Relalg.Limits.reason_label reason),
                  Printf.sprintf "every rung aborted (%d attempt(s)); last: %s"
                    rungs
                    (Relalg.Limits.describe reason) )
            | [] ->
              Wire.Failed (id, Wire.Aborted "deadline", "no time left to attempt")
            )
        end
        else begin
          let limits = Supervise.Budget.to_limits budget in
          (match chaos with
          | Some c -> Supervise.Chaos.arm c ~attempt:0 limits
          | None -> ());
          let outcome =
            Driver.run ~rng ~feedback ~observer ~compiled
              ~ctx:(Relalg.Ctx.with_limits ctx limits)
              meth t.db cq
          in
          finish outcome ~rungs:1 ~rescued:false ~approximate:false
        end)

(* Crash containment: whatever a session raises — evaluator bugs, missing
   relations, arity mismatches — becomes a typed [internal] response for
   that session only; the worker and the daemon live on. *)
let process t job =
  let started = Unix.gettimeofday () in
  let queue_seconds = started -. job.enqueued_at in
  Metrics.observe (Metrics.histogram t.metrics "serve.queue_seconds") queue_seconds;
  let deadline_ms =
    match job.request.Wire.deadline_ms with
    | Some ms -> Some (min ms t.cfg.max_deadline_ms)
    | None ->
      Option.map (fun ms -> min ms t.cfg.max_deadline_ms) t.cfg.default_deadline_ms
  in
  let deadline_abs =
    Option.map (fun ms -> job.enqueued_at +. (float_of_int ms /. 1000.0)) deadline_ms
  in
  let response =
    match deadline_abs with
    | Some d when started >= d ->
      (* The request's whole deadline burned away in the admission
         queue: shed it without spending a single operator on it. *)
      count t "serve.expired";
      Wire.Failed
        ( job.request.Wire.id,
          Wire.Aborted "deadline",
          "deadline expired while queued" )
    | _ -> (
      try run_session t job.request job.work ~queue_seconds ~deadline_abs
      with e ->
        count t "serve.internal_errors";
        Log.err (fun f ->
            f "session crashed: %s" (Printexc.to_string e));
        Wire.Failed
          ( job.request.Wire.id,
            Wire.Internal,
            Printf.sprintf "session failed: %s" (Printexc.to_string e) ))
  in
  (* Batch fan-out: followers attached while this job was queued (never
     after — the batch-index entry died when the job was popped, so
     [followers] is stable here). Each gets the leader's outcome under
     its own request id: answers with zero compile time (they paid
     none), failures verbatim — a shared execution's typed abort is
     every member's typed abort. *)
  let followers = List.rev job.followers in
  let response =
    match (response, followers) with
    | Wire.Answer (id, a), _ :: _ ->
      Wire.Answer (id, { a with Wire.batched = true })
    | r, _ -> r
  in
  Metrics.observe
    (Metrics.histogram t.metrics "serve.session_seconds")
    (Unix.gettimeofday () -. started);
  (* The reply callbacks belong to the transport; a dead client must not
     kill the worker (nor lose its batch-mates their replies). *)
  (try job.reply response
   with e ->
     Log.debug (fun f -> f "reply dropped: %s" (Printexc.to_string e)));
  List.iter
    (fun w ->
      let r =
        match response with
        | Wire.Answer (_, a) ->
          count t "serve.answers";
          Wire.Answer
            ( w.wid,
              {
                a with
                Wire.batched = true;
                compile_seconds = 0.0;
                queue_seconds = started -. w.wenqueued_at;
              } )
        | Wire.Failed (_, kind, msg) ->
          (match kind with
          | Wire.Aborted _ -> count t "serve.aborts"
          | Wire.Internal -> count t "serve.internal_errors"
          | _ -> ());
          Wire.Failed (w.wid, kind, msg)
        | r -> r
      in
      try w.wreply r
      with e ->
        Log.debug (fun f -> f "reply dropped: %s" (Printexc.to_string e)))
    followers

(* Pop the head of the next client's queue, then rotate that client to
   the back if it still has work. Caller holds [t.lock]. *)
let pop_job_locked t =
  let cid = Queue.pop t.rotation in
  let jobs = Hashtbl.find t.clients cid in
  let job = Queue.pop jobs in
  if Queue.is_empty jobs then Hashtbl.remove t.clients cid
  else Queue.push cid t.rotation;
  t.queued <- t.queued - 1;
  (match job.work with
  | Execute { batch_key; cost_units; _ } ->
    (* Close the batch window: identical requests arriving from here on
       start a fresh batch instead of racing this running execution. *)
    (match batch_key with
    | Some bk -> (
      match Hashtbl.find_opt t.batch_index bk with
      | Some leader when leader == job -> Hashtbl.remove t.batch_index bk
      | _ -> ())
    | None -> ());
    t.backlog_units <- Float.max 0.0 (t.backlog_units -. cost_units)
  | Continuation _ -> ());
  job

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while t.queued = 0 && not t.stopped do
      Condition.wait t.nonempty t.lock
    done;
    if t.queued = 0 then (* stopped, queue drained *)
      Mutex.unlock t.lock
    else begin
      let job = pop_job_locked t in
      t.inflight <- t.inflight + 1;
      Mutex.unlock t.lock;
      process t job;
      Mutex.lock t.lock;
      t.inflight <- t.inflight - 1;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Public API.                                                         *)

(* Warm-up replay: one line is ["METHOD\tQUERY"] or just a query (the
   wire protocol's default method). Each runs the same pipeline a
   session would — prepare into the plan cache under the current
   feedback, then one materializing run whose harvest seeds the
   feedback store — so the first real request sees a warm cache and
   corrected estimates. Blank lines and [#] comments are skipped; bad
   lines are logged and skipped. *)
let warm_line t line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then false
  else begin
    let meth_str, text =
      match String.index_opt line '\t' with
      | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        )
      | None -> ("bucket-elimination", line)
    in
    match method_of_string meth_str with
    | None ->
      Log.warn (fun f -> f "warm: unknown method %S, line skipped" meth_str);
      false
    | Some meth -> (
      match Conjunctive.Parse.query text with
      | Error e ->
        Log.warn (fun f ->
            f "warm: %a, line skipped" Conjunctive.Parse.pp_error e);
        false
      | Ok parsed ->
        let meth = apply_planner t.cfg.planner meth in
        let canon =
          Hypergraphs.Canon.canonicalize parsed.Conjunctive.Parse.query
        in
        let cq = canon.Hypergraphs.Canon.query in
        let key = Plan_cache.key_of ~canon ~meth:(Driver.method_name meth) in
        let compiled, _ =
          Plan_cache.find_or_add t.cache key (fun () ->
              Driver.prepare ~rng:(Graphlib.Rng.make 17)
                ~feedback:(Adapt.Store.feedback t.store)
                meth t.db cq)
        in
        let limits = Supervise.Budget.to_limits t.cfg.budget in
        ignore
          (Driver.run ~rng:(Graphlib.Rng.make 17)
             ~observer:(fun obs -> Adapt.Store.ingest t.store obs)
             ~compiled
             ~ctx:(Relalg.Ctx.create ~limits ())
             meth t.db cq);
        true)
  end

let create ?(config = default_config) db =
  if config.workers < 1 then invalid_arg "Engine.create: workers < 1";
  if config.queue_depth < 1 then invalid_arg "Engine.create: queue_depth < 1";
  (* Plugin planners must resolve before any compile — a registry miss
     inside a session would be an internal error, not a bad request. *)
  Adapt.Grad.register ();
  let t =
    {
      cfg = config;
      db;
      metrics = Metrics.create ();
      cache = Plan_cache.create ~capacity:config.cache_capacity ();
      store = Adapt.Store.create ();
      cursors =
        Cursors.create ~capacity:config.cursor_capacity
          ~on_evict:(fun p -> Relalg.Cursor.close p.pcur);
      admission = Admission.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      clients = Hashtbl.create 16;
      rotation = Queue.create ();
      batch_index = Hashtbl.create 32;
      backlog_units = 0.0;
      queued = 0;
      stopped = false;
      inflight = 0;
      warmed = 0;
      workers = [||];
    }
  in
  (* Warm the plan cache and feedback store from the previous run's
     snapshots, then replay the warm list — all before any worker can
     race a session against the load. *)
  (match config.cache_file with
  | Some path ->
    let n = Plan_cache.load t.cache path in
    if n > 0 then
      Log.info (fun f -> f "plan cache: restored %d entries from %s" n path)
  | None -> ());
  (match config.feedback_file with
  | Some path ->
    let n = Adapt.Store.load t.store path in
    if n > 0 then
      Log.info (fun f -> f "feedback store: restored %d entries from %s" n path)
  | None -> ());
  List.iter (fun line -> if warm_line t line then t.warmed <- t.warmed + 1)
    config.warm;
  if t.warmed > 0 then
    Log.info (fun f ->
        f "warm: replayed %d quer%s (cache %d entries, feedback %d signatures)"
          t.warmed
          (if t.warmed = 1 then "y" else "ies")
          (Plan_cache.size t.cache) (Adapt.Store.size t.store));
  t.workers <-
    Array.init config.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let stats_fields t =
  let c name = Metrics.value (Metrics.counter t.metrics name) in
  let queued, clients, inflight, backlog_units =
    Mutex.lock t.lock;
    let q = t.queued in
    let cs = Hashtbl.length t.clients in
    let i = t.inflight in
    let b = t.backlog_units in
    Mutex.unlock t.lock;
    (q, cs, i, b)
  in
  [
    ("queued", Json.Int queued);
    ("clients_queued", Json.Int clients);
    ("inflight", Json.Int inflight);
    ("workers", Json.Int (Array.length t.workers));
    ("queue_depth", Json.Int t.cfg.queue_depth);
    ("backlog_cost_log2", Json.Float (Admission.log2_of_units backlog_units));
    ("requests", Json.Int (c "serve.requests"));
    ("answers", Json.Int (c "serve.answers"));
    ("batched", Json.Int (c "serve.batched"));
    ("shed", Json.Int (c "serve.shed"));
    ("shed_cost", Json.Int (c "serve.shed_cost"));
    ("shed_quota", Json.Int (c "serve.shed_quota"));
    ("expired", Json.Int (c "serve.expired"));
    ("aborts", Json.Int (c "serve.aborts"));
    ("parse_errors", Json.Int (c "serve.parse_errors"));
    ("internal_errors", Json.Int (c "serve.internal_errors"));
    ("cursors_parked", Json.Int (Cursors.size t.cursors));
    ("cursor_evictions", Json.Int (Cursors.evictions t.cursors));
    ("cursors_expired", Json.Int (c "serve.cursor_expired"));
    ("cache_size", Json.Int (Plan_cache.size t.cache));
    ("cache_hits", Json.Int (Plan_cache.hits t.cache));
    ("cache_misses", Json.Int (Plan_cache.misses t.cache));
    ("cache_evictions", Json.Int (Plan_cache.evictions t.cache));
    ("feedback_signatures", Json.Int (Adapt.Store.size t.store));
    ("feedback_samples", Json.Int (Adapt.Store.samples t.store));
    ("feedback_hits", Json.Int (Adapt.Store.hits t.store));
    ("warmed", Json.Int t.warmed);
  ]

(* Admission control: O(1) under the lock (classification — parsing,
   canonicalization, the memoized cost estimate — runs before taking
   it), never blocks the caller. The queue either takes the job or the
   request is shed right here with a typed response. The gates, in
   order: batch coalescing (a follower consumes no slot and skips every
   shed), the per-query cost ceiling, the per-client quota, the global
   depth bound, the backlog cost ceiling. [client] names the
   submitter's fairness bucket (the transport passes its connection
   id); all anonymous submitters share one bucket. *)
let submit_async ?(client = -1) t (request : Wire.request) ~reply =
  match request with
  | Wire.Ping id -> reply (Wire.Pong id)
  | Wire.Metrics id ->
    reply
      (Wire.Metrics_text (id, Format.asprintf "%a" Metrics.pp t.metrics))
  | Wire.Stats id -> reply (Wire.Stats_obj (id, stats_fields t))
  | Wire.Query q -> (
    count t "serve.requests";
    match classify t q with
    | Error (kind, msg) -> reply (Wire.Failed (q.Wire.id, kind, msg))
    | Ok work ->
      let now = Unix.gettimeofday () in
      let verdict =
        Mutex.lock t.lock;
        let v =
          if t.stopped then `Shutting_down
          else begin
            let attached =
              match work with
              | Execute { batch_key = Some bk; _ } -> (
                match Hashtbl.find_opt t.batch_index bk with
                | Some leader ->
                  leader.followers <-
                    { wid = q.Wire.id; wreply = reply; wenqueued_at = now }
                    :: leader.followers;
                  true
                | None -> false)
              | _ -> false
            in
            if attached then `Batched
            else begin
              let over_cost =
                match (work, t.cfg.max_cost_log2) with
                | Execute { cost_log2 = Some cost; _ }, Some ceiling
                  when cost > ceiling ->
                  Some (cost, ceiling)
                | _ -> None
              in
              let over_quota =
                match t.cfg.client_quota with
                | Some quota -> (
                  match Hashtbl.find_opt t.clients client with
                  | Some jobs when Queue.length jobs >= quota -> Some quota
                  | _ -> None)
                | None -> None
              in
              let over_backlog =
                (* Only guards a nonempty queue: an idle daemon admits
                   any affordable query no matter the aggregate ceiling,
                   so a lone expensive-but-under-the-per-query-ceiling
                   request is never permanently unservable. *)
                match (work, t.cfg.max_queue_cost_log2) with
                | Execute { cost_units; _ }, Some ceiling
                  when t.queued > 0
                       && Admission.log2_of_units
                            (t.backlog_units +. cost_units)
                          > ceiling ->
                  Some ceiling
                | _ -> None
              in
              match (over_cost, over_quota) with
              | Some (cost, ceiling), _ -> `Shed_cost (cost, ceiling)
              | None, Some quota -> `Shed_quota quota
              | None, None ->
                if t.queued >= t.cfg.queue_depth then `Overloaded
                else (
                  match over_backlog with
                  | Some ceiling -> `Shed_backlog ceiling
                  | None ->
                    let jobs =
                      match Hashtbl.find_opt t.clients client with
                      | Some jobs -> jobs
                      | None ->
                        let jobs = Queue.create () in
                        Hashtbl.add t.clients client jobs;
                        Queue.push client t.rotation;
                        jobs
                    in
                    let job =
                      {
                        request = q;
                        reply;
                        enqueued_at = now;
                        work;
                        followers = [];
                      }
                    in
                    Queue.push job jobs;
                    (match work with
                    | Execute { batch_key = Some bk; cost_units; _ } ->
                      Hashtbl.replace t.batch_index bk job;
                      t.backlog_units <- t.backlog_units +. cost_units
                    | Execute { batch_key = None; cost_units; _ } ->
                      t.backlog_units <- t.backlog_units +. cost_units
                    | Continuation _ -> ());
                    t.queued <- t.queued + 1;
                    Metrics.observe_max
                      (Metrics.max_gauge t.metrics "serve.queue_peak")
                      t.queued;
                    Condition.signal t.nonempty;
                    `Queued)
            end
          end
        in
        Mutex.unlock t.lock;
        v
      in
      (match verdict with
      | `Queued -> ()
      | `Batched ->
        (* The follower's reply arrives when its leader's execution fans
           out; nothing else to do here. *)
        count t "serve.batched"
      | `Shutting_down ->
        reply
          (Wire.Failed (q.Wire.id, Wire.Shutting_down, "daemon is draining"))
      | `Shed_cost (cost, ceiling) ->
        count t "serve.shed_cost";
        reply
          (Wire.Failed
             ( q.Wire.id,
               Wire.Shed_cost,
               Printf.sprintf
                 "estimated cost 2^%.1f tuples exceeds the admission ceiling \
                  2^%.1f"
                 cost ceiling ))
      | `Shed_quota quota ->
        count t "serve.shed_quota";
        reply
          (Wire.Failed
             ( q.Wire.id,
               Wire.Shed_quota,
               Printf.sprintf "client already has %d job(s) queued" quota ))
      | `Shed_backlog ceiling ->
        count t "serve.shed_cost";
        reply
          (Wire.Failed
             ( q.Wire.id,
               Wire.Shed_cost,
               Printf.sprintf
                 "admitting would push the backlog's estimated cost past \
                  2^%.1f tuples"
                 ceiling ))
      | `Overloaded ->
        count t "serve.shed";
        reply
          (Wire.Failed
             ( q.Wire.id,
               Wire.Overloaded,
               Printf.sprintf "admission queue full (%d queued)"
                 t.cfg.queue_depth ))))

let submit ?client t request =
  let slot = ref None in
  let m = Mutex.create () in
  let filled = Condition.create () in
  submit_async ?client t request ~reply:(fun r ->
      Mutex.lock m;
      slot := Some r;
      Condition.signal filled;
      Mutex.unlock m);
  Mutex.lock m;
  while !slot = None do
    Condition.wait filled m
  done;
  let r = Option.get !slot in
  Mutex.unlock m;
  r

let stop t =
  let workers =
    Mutex.lock t.lock;
    let w = t.workers in
    t.workers <- [||];
    t.stopped <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    w
  in
  (* Drain: workers keep answering queued sessions and exit only once
     the queue is empty; join waits for the last in-flight reply. *)
  Array.iter Domain.join workers;
  (* Parked paginations die with the daemon: close them so suspended
     producers are released. Clients resuming later get the typed
     expired-cursor error (idempotent on repeat stops — the table is
     empty then). *)
  Cursors.drain t.cursors;
  (* Snapshot the warmed cache only after the drain, so the last
     sessions' compiles make it into the file. The first stop call owns
     the workers array; later (idempotent) calls skip the save. *)
  if Array.length workers > 0 then begin
    (match t.cfg.cache_file with
    | None -> ()
    | Some path -> (
      try
        let n = Plan_cache.save t.cache path in
        Log.info (fun f -> f "plan cache: saved %d entries to %s" n path)
      with Sys_error msg ->
        Log.err (fun f -> f "plan cache: save to %s failed: %s" path msg)));
    match t.cfg.feedback_file with
    | None -> ()
    | Some path -> (
      try
        let n = Adapt.Store.save t.store path in
        Log.info (fun f -> f "feedback store: saved %d entries to %s" n path)
      with Sys_error msg ->
        Log.err (fun f -> f "feedback store: save to %s failed: %s" path msg))
  end

let stopped t =
  Mutex.lock t.lock;
  let s = t.stopped in
  Mutex.unlock t.lock;
  s
