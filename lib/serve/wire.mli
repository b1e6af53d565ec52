(** The daemon's wire protocol: line-delimited JSON, one request or
    response per line.

    Requests are objects with an ["op"] field:

    - [{"op":"query", "query":"ans(X,Y) :- edge(X,Y).", ...}] — run a
      query. Optional fields: ["id"] (any JSON, echoed verbatim on the
      response), ["method"] (default ["bucket-elimination"]),
      ["ladder"] (default [true]: degrade down the supervision ladder
      instead of failing on the first abort), ["deadline_ms"],
      ["max_tuples"] (per-intermediate cardinality cap), ["max_total"],
      ["fuel"], ["max_answers"] (response row cap), ["chaos"] (a fault
      spec as on the CLI, for soak tests), ["seed"], ["limit"] (page
      size: stream the answer and return only the first page, with a
      ["next_cursor"] continuation token), ["cursor"] (continue a
      paginated session from a previously returned token).
    - [{"op":"ping"}] — liveness probe.
    - [{"op":"metrics"}] — the metric registry as a text dump.
    - [{"op":"stats"}] — machine-readable serving counters.

    Responses carry ["status"]: ["ok"] or ["error"]; errors carry a
    typed ["kind"] ([overloaded], [shed-cost], [shed-quota], [abort]
    (+ ["reason"]), [parse], [bad-request], [shutting-down],
    [cursor-expired], [internal]) so clients can tell load-shedding
    from failure. *)

module Json = Telemetry.Json

type error_kind =
  | Bad_request
  | Parse_error
  | Overloaded  (** shed by admission control: retry later, not a bug *)
  | Shed_cost
      (** shed because the query's structural cost estimate exceeds the
          per-query ceiling, or the backlog's aggregate estimated cost
          exceeds the queue ceiling — rewriting the query (or retrying
          when the backlog drains) may help; retrying verbatim against a
          per-query shed will not *)
  | Shed_quota
      (** shed because this client already has its quota of queued jobs
          — drain your own backlog first; other clients are unaffected *)
  | Shutting_down
  | Cursor_expired
      (** the continuation token was never issued, already used, or its
          parked cursor was LRU-evicted — restart the pagination *)
  | Aborted of string  (** the {!Relalg.Limits.reason_label} *)
  | Internal

val error_kind_label : error_kind -> string

type query = {
  id : Json.t;
  text : string;
  meth : string;
  ladder : bool;
  deadline_ms : int option;
  max_tuples : int option;
  max_total : int option;
  fuel : int option;
  max_answers : int option;
  limit : int option;  (** page size; presence switches to streaming *)
  cursor : string option;  (** continuation token from a prior page *)
  chaos : string option;
  seed : int;
}

type request =
  | Query of query
  | Ping of Json.t  (** the request id *)
  | Metrics of Json.t
  | Stats of Json.t

val parse_request : string -> (request, error_kind * string * Json.t) result
(** Parse one protocol line. [Error] carries the error kind, a
    diagnostic and the request id when one could still be extracted (so
    the error response can be correlated). The kind is [Parse_error]
    when the line is not JSON (including JSON nested more than 512
    levels deep) and [Bad_request] when it is JSON that
    {!of_json} rejects: a non-object, a missing or unknown ["op"], or a
    field of the wrong type. *)

val of_json : Json.t -> (request, string * Json.t) result
(** Decode a parsed JSON value; [Error] carries a diagnostic and the
    request id, if any. *)

val field : Json.t -> string -> Json.t option
(** Object field lookup; [None] on non-objects and absent fields. *)

val request_id : Json.t -> Json.t
(** The ["id"] field, or [Null]. *)

type answer = {
  cardinality : int;
  nonempty : bool;
  answers : int list list;  (** rows in the query's free-variable order *)
  truncated : bool;  (** more rows existed than [max_answers] *)
  cache_hit : bool;
  batched : bool;
      (** the session was coalesced with identical admitted queries: set
          on the leader (whose single execution fanned out) and on every
          follower (which paid no compile and no execution of its own) *)
  rungs : int;  (** supervision attempts this request took *)
  rescued : bool;
  approximate : bool;  (** answered by an upper-bound rung (mini-bucket) *)
  meth : string;  (** the method that produced the answer *)
  compile_seconds : float;
  exec_seconds : float;
  queue_seconds : float;  (** admission-queue wait, deadline-inclusive *)
  page : int option;
      (** 0-based page index of a paginated session; [None] on ordinary
          whole-answer responses. Paged responses count the {e page} in
          [cardinality]/[nonempty] and set [truncated] iff more pages
          remain *)
  next_cursor : string option;
      (** fresh single-use continuation token; [None] once exhausted *)
}

type response =
  | Answer of Json.t * answer
  | Pong of Json.t
  | Metrics_text of Json.t * string
  | Stats_obj of Json.t * (string * Json.t) list
  | Failed of Json.t * error_kind * string

val response_to_json : response -> Json.t
val response_to_string : response -> string
val response_id : response -> Json.t
