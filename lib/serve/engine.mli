(** The serving engine: a pool of worker domains draining a bounded
    admission queue of query sessions.

    Each session runs one {!Wire.query} through the full pipeline —
    parse, canonicalize ({!Hypergraphs.Canon}), plan-cache lookup
    ({!Plan_cache} over {!Ppr_core.Driver.prepare} artifacts), then a
    deadline- and budget-bounded {!Supervise.run} (or a single
    {!Ppr_core.Driver.run} when the client disables the ladder).

    Robustness contract:

    - {b Admission control}: {!submit_async} never blocks and never
      queues past [queue_depth]; excess load is shed immediately with a
      typed [Overloaded] response. Requests that can never execute
      (parse errors, unknown methods, bad chaos specs) are refused at
      admission without consuming a queue slot.
    - {b Cost-aware admission}: with [max_cost_log2] set, each query is
      priced before queueing using the structural gate's analytic
      bounds (a {e lower} bound on any route's work, see {!Admission}),
      and queries over the ceiling are shed with a typed [Shed_cost]
      response; with [max_queue_cost_log2] set, a query whose estimate
      would push the backlog's aggregate past the ceiling is likewise
      shed (only while the queue is nonempty — an idle daemon admits
      any per-query-affordable request).
    - {b Per-client quotas}: with [client_quota] set, a client with
      that many jobs already queued is shed with [Shed_quota] — only
      the flooder, never its neighbors.
    - {b Batched execution}: identical canonical queries (same plan
      key, same answer-shaping fields) admitted while one of them is
      still queued coalesce into a single execution whose outcome fans
      out to every member — followers consume no queue slot, pay no
      compile and carry [batched = true] with tuple-identical answers.
    - {b Deadlines from admission}: a request's deadline starts when it
      is enqueued, so time spent waiting in the queue burns its budget —
      a request whose deadline expires in the queue is answered
      [Aborted "deadline"] without running a single operator.
    - {b Crash containment}: any exception a session raises is converted
      into an [Internal] response for that session only; the worker
      domain and the engine survive.
    - {b Drain on stop}: {!stop} refuses new work but answers everything
      already queued before returning.

    Every reply callback is invoked {e exactly once} per submitted
    request, on the worker domain that ran the session (or on the
    caller's thread for immediate sheds and non-query ops). *)

type config = {
  workers : int;  (** worker domains (default 4) *)
  queue_depth : int;  (** admission-queue bound (default 64) *)
  cache_capacity : int;  (** plan-cache LRU bound (default 512) *)
  cache_file : string option;
      (** when set, the plan cache is restored from this snapshot on
          {!create} and written back after {!stop}'s drain, so a
          restarted daemon replays compiled artifacts (including
          prepared GHD decompositions) instead of re-planning; a
          missing, corrupt or other-binary snapshot is silently ignored
          (default [None]) *)
  feedback_file : string option;
      (** the adaptive feedback store's snapshot, with the same
          lifecycle and rejection discipline as [cache_file]: learned
          cardinality corrections survive a daemon restart
          (default [None]) *)
  planner : string option;
      (** daemon-wide order-search substitution for naive requests using
          the default DP/genetic split: ["gradient"] (or any plugin
          registered with {!Ppr_core.Naive.register_order_search})
          replaces the genetic search above the DP threshold; [None] or
          ["genetic"] keeps the default (default [None]) *)
  warm : string list;
      (** queries replayed through the full pipeline (compile into the
          plan cache, one run harvesting into the feedback store) before
          the first worker spawns — each line ["METHOD\tQUERY"] or just
          a query; blank lines, [#] comments and bad lines are skipped
          (default empty) *)
  default_deadline_ms : int option;
      (** applied when the request carries none (default [None]) *)
  max_deadline_ms : int;
      (** cap on any requested deadline (default 300_000) *)
  default_max_answers : int;  (** response row cap default (100) *)
  max_answers_cap : int;  (** hard cap on requested row counts (10_000) *)
  cursor_capacity : int;
      (** parked-pagination LRU bound (default 64): each paginated
          session parks its half-drained cursor between pages; beyond
          the bound the least-recently-parked cursor is closed and its
          token answers with the typed [cursor-expired] error *)
  max_cost_log2 : float option;
      (** per-query admission ceiling on the structural cost estimate
          (log2 tuples); queries whose estimate exceeds it are shed with
          [Shed_cost]. [None] disables cost-aware admission
          (default [None]) *)
  max_queue_cost_log2 : float option;
      (** ceiling on the {e backlog's} aggregate estimated cost: a
          query that would push the queued sum past it is shed with
          [Shed_cost] while the queue is nonempty (default [None]) *)
  client_quota : int option;
      (** per-client bound on queued jobs: a client at its quota is
          shed with [Shed_quota]; other clients are unaffected
          (default [None]) *)
  batching : bool;
      (** coalesce identical canonical queries admitted together into
          one execution fanned out to all of them (default [true]) *)
  budget : Supervise.Budget.t;
      (** base resource budget; per-request fields override *)
}

val default_config : config

type t

val create : ?config:config -> Conjunctive.Database.t -> t
(** Spawns [config.workers] domains immediately. Each session runs on
    the worker domain that picked it up. *)

val submit_async :
  ?client:int -> t -> Wire.request -> reply:(Wire.response -> unit) -> unit
(** Enqueue a request. Non-query ops (ping/metrics/stats) are answered
    synchronously on the calling thread. Queries are answered from a
    worker domain — or immediately with a typed refusal ([Overloaded],
    [Shed_cost], [Shed_quota], [Shutting_down], [Bad_request],
    [Parse_error]) when admission fails. A query coalesced into a
    queued identical one is answered when that batch's single execution
    fans out. [reply] is called exactly once; exceptions it raises are
    swallowed (a dead client must not kill a worker).

    [client] names the submitter's fairness bucket — the transport
    passes its connection id. Workers drain the buckets round-robin, so
    one client flooding the queue delays only its own later requests:
    another client's next job waits for at most one job per competing
    client, never for the flooder's whole backlog. Submitters that omit
    [client] share a single bucket. *)

val submit : ?client:int -> t -> Wire.request -> Wire.response
(** Blocking convenience over {!submit_async} (tests, CLI one-shots). *)

val stop : t -> unit
(** Stop admitting, drain the queue, join the workers. Every request
    queued before the call is still answered. Idempotent. *)

val stopped : t -> bool

val metrics : t -> Telemetry.Metrics.t
(** The shared registry all sessions record into (domain-safe). *)

val cache : t -> Ppr_core.Driver.compiled Plan_cache.t

val feedback : t -> Adapt.Store.t
(** The engine's feedback store: every session compiles under its
    corrections (cache misses and the supervisor's re-plan rung) and
    funnels its harvested observations back in. *)

val warmed : t -> int
(** Queries successfully replayed from [config.warm] during {!create}. *)

val stats_fields : t -> (string * Telemetry.Json.t) list
(** The [stats] op's payload: queue/inflight/cache/counter snapshot. *)

val method_of_string : string -> Ppr_core.Driver.meth option
(** The wire protocol's method names, including ["minibucket:N"]. *)

val chaos_of_spec : string -> Supervise.Chaos.t option
(** CLI-style fault specs: [op:N], [tuples:K], [seed:S], plus the
    latency faults [stall:N:SECONDS] and [stall-tuples:K:SECONDS]. *)
