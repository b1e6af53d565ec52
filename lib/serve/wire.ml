module Json = Telemetry.Json

(* ------------------------------------------------------------------ *)
(* Error kinds, shared by rejected requests and failed responses.      *)

type error_kind =
  | Bad_request
  | Parse_error
  | Overloaded
  | Shed_cost
  | Shed_quota
  | Shutting_down
  | Cursor_expired
  | Aborted of string  (** the {!Relalg.Limits.reason_label} *)
  | Internal

let error_kind_label = function
  | Bad_request -> "bad-request"
  | Parse_error -> "parse"
  | Overloaded -> "overloaded"
  | Shed_cost -> "shed-cost"
  | Shed_quota -> "shed-quota"
  | Shutting_down -> "shutting-down"
  | Cursor_expired -> "cursor-expired"
  | Aborted _ -> "abort"
  | Internal -> "internal"

(* ------------------------------------------------------------------ *)
(* Requests.                                                           *)

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
  limit : int option;
  cursor : string option;
  chaos : string option;
  seed : int;
}

type request =
  | Query of query
  | Ping of Json.t
  | Metrics of Json.t
  | Stats of Json.t

let field obj name =
  match obj with
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let request_id obj =
  match field obj "id" with Some id -> id | None -> Json.Null

(* Decoding is strict about types but lenient about presence: a missing
   optional field means "use the server default", a present field of the
   wrong type is a protocol error (silently coercing would mask client
   bugs under default behavior). *)
type 'a decoded = ('a, string) result

let opt_int obj name : int option decoded =
  match field obj name with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let opt_string obj name : string option decoded =
  match field obj name with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let opt_bool obj name : bool option decoded =
  match field obj name with
  | None | Some Json.Null -> Ok None
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let decode_query obj =
  let id = request_id obj in
  let* text = opt_string obj "query" in
  match text with
  | None -> Error "query op needs a \"query\" field"
  | Some text ->
    let* meth = opt_string obj "method" in
    let* ladder = opt_bool obj "ladder" in
    let* deadline_ms = opt_int obj "deadline_ms" in
    let* max_tuples = opt_int obj "max_tuples" in
    let* max_total = opt_int obj "max_total" in
    let* fuel = opt_int obj "fuel" in
    let* max_answers = opt_int obj "max_answers" in
    let* limit = opt_int obj "limit" in
    let* cursor = opt_string obj "cursor" in
    let* chaos = opt_string obj "chaos" in
    let* seed = opt_int obj "seed" in
    Ok
      (Query
         {
           id;
           text;
           meth = Option.value meth ~default:"bucket-elimination";
           ladder = Option.value ladder ~default:true;
           deadline_ms;
           max_tuples;
           max_total;
           fuel;
           max_answers;
           limit;
           cursor;
           chaos;
           seed = Option.value seed ~default:0;
         })

let of_json obj =
  match obj with
  | Json.Obj _ -> (
    let id = request_id obj in
    match field obj "op" with
    | None -> Error ("request needs an \"op\" field", id)
    | Some (Json.String op) -> (
      match op with
      | "query" -> (
        match decode_query obj with
        | Ok q -> Ok q
        | Error msg -> Error (msg, id))
      | "ping" -> Ok (Ping id)
      | "metrics" -> Ok (Metrics id)
      | "stats" -> Ok (Stats id)
      | other -> Error (Printf.sprintf "unknown op %S" other, id))
    | Some _ -> Error ("\"op\" must be a string", id))
  | _ -> Error ("request must be a JSON object", Json.Null)

(* A line that is not JSON is a [Parse_error]; JSON that is not a valid
   request is a [Bad_request]. *)
let parse_request line =
  match Jsonl.parse line with
  | Error msg -> Error (Parse_error, "malformed JSON: " ^ msg, Json.Null)
  | Ok obj -> (
    match of_json obj with
    | Ok r -> Ok r
    | Error (msg, id) -> Error (Bad_request, msg, id))

(* ------------------------------------------------------------------ *)
(* Responses.                                                          *)

type answer = {
  cardinality : int;
  nonempty : bool;
  answers : int list list;
  truncated : bool;
  cache_hit : bool;
  batched : bool;
      (** the session was coalesced with identical admitted queries:
          set on the leader (whose execution fanned out) and on every
          follower (which paid no compile and no execution) *)
  rungs : int;
  rescued : bool;
  approximate : bool;
  meth : string;
  compile_seconds : float;
  exec_seconds : float;
  queue_seconds : float;
  page : int option;
      (** 0-based page index when the answer is one page of a paginated
          session; [None] on ordinary whole-answer responses *)
  next_cursor : string option;
      (** the fresh single-use continuation token; [None] when the
          stream is exhausted (only meaningful when [page] is set) *)
}

type response =
  | Answer of Json.t * answer
  | Pong of Json.t
  | Metrics_text of Json.t * string
  | Stats_obj of Json.t * (string * Json.t) list
  | Failed of Json.t * error_kind * string

let response_to_json = function
  | Answer (id, a) ->
    Json.Obj
      ([
        ("id", id);
        ("status", Json.String "ok");
        ("cardinality", Json.Int a.cardinality);
        ("nonempty", Json.Bool a.nonempty);
        ( "answers",
          Json.List
            (List.map
               (fun row -> Json.List (List.map (fun v -> Json.Int v) row))
               a.answers) );
        ("truncated", Json.Bool a.truncated);
        ("cache", Json.String (if a.cache_hit then "hit" else "miss"));
        ("batched", Json.Bool a.batched);
        ("rungs", Json.Int a.rungs);
        ("rescued", Json.Bool a.rescued);
        ("approximate", Json.Bool a.approximate);
        ("method", Json.String a.meth);
        ("compile_seconds", Json.Float a.compile_seconds);
        ("exec_seconds", Json.Float a.exec_seconds);
        ("queue_seconds", Json.Float a.queue_seconds);
      ]
      @
      (match a.page with
      | None -> []
      | Some p ->
        [
          ("page", Json.Int p);
          ( "next_cursor",
            match a.next_cursor with
            | Some c -> Json.String c
            | None -> Json.Null );
        ]))
  | Pong id ->
    Json.Obj [ ("id", id); ("status", Json.String "ok"); ("pong", Json.Bool true) ]
  | Metrics_text (id, text) ->
    Json.Obj
      [ ("id", id); ("status", Json.String "ok"); ("metrics", Json.String text) ]
  | Stats_obj (id, fields) ->
    Json.Obj ([ ("id", id); ("status", Json.String "ok") ] @ fields)
  | Failed (id, kind, message) ->
    Json.Obj
      ([
         ("id", id);
         ("status", Json.String "error");
         ("kind", Json.String (error_kind_label kind));
       ]
      @ (match kind with
        | Aborted reason -> [ ("reason", Json.String reason) ]
        | _ -> [])
      @ [ ("message", Json.String message) ])

let response_to_string r = Json.to_string (response_to_json r)

let response_id = function
  | Answer (id, _) | Pong id | Metrics_text (id, _) | Stats_obj (id, _)
  | Failed (id, _, _) ->
    id
