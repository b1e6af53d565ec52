(* Tests for the serving layer: the wire protocol (JSON parsing and
   request/response encoding), the structural plan cache and its
   canonicalization guarantees, the admission-controlled engine, and the
   socket server's end-to-end behavior including drain-on-stop. *)

open Helpers
module Json = Telemetry.Json
module Jsonl = Serve.Jsonl
module Wire = Serve.Wire
module Canon = Hypergraphs.Canon
module Cq = Conjunctive.Cq
module Driver = Ppr_core.Driver

(* ------------------------------------------------------------------ *)
(* JSON parsing                                                        *)

let test_jsonl_round_trips () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Float 2.5;
      Json.String "";
      Json.String "plain";
      Json.String "esc \"quotes\" \\ / \n \t tail";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Jsonl.parse (Json.to_string v) with
      | Ok v' ->
        check_bool (Printf.sprintf "round-trips %s" (Json.to_string v)) true
          (v = v')
      | Error msg -> Alcotest.failf "failed to parse own output: %s" msg)
    values

let test_jsonl_escapes_and_numbers () =
  let ok input expected =
    match Jsonl.parse input with
    | Ok v -> check_bool input true (v = expected)
    | Error msg -> Alcotest.failf "%s: %s" input msg
  in
  ok {|"a\nbA"|} (Json.String "a\nbA");
  (* a surrogate pair decodes to 4-byte UTF-8 *)
  ok {|"😀"|} (Json.String "\xf0\x9f\x98\x80");
  ok "3" (Json.Int 3);
  ok "-7" (Json.Int (-7));
  ok "3.5" (Json.Float 3.5);
  ok "-2.5e1" (Json.Float (-25.0));
  ok "1e2" (Json.Float 100.0);
  ok "  [1 , 2]  " (Json.List [ Json.Int 1; Json.Int 2 ])

let test_jsonl_rejects_garbage () =
  List.iter
    (fun input ->
      match Jsonl.parse input with
      | Ok _ -> Alcotest.failf "accepted %S" input
      | Error _ -> ())
    [ ""; "{"; "tru"; "1 2"; "[1,]"; "{\"a\":}"; "\"unterminated"; "nullx" ]

let nested depth = String.make depth '[' ^ String.make depth ']'

let test_jsonl_nesting_cap () =
  check_bool "512 deep parses" true (Result.is_ok (Jsonl.parse (nested 512)));
  check_bool "513 deep is rejected" true
    (Result.is_error (Jsonl.parse (nested 513)));
  check_bool "objects count toward the cap" true
    (Result.is_error
       (Jsonl.parse (String.concat "" (List.init 513 (fun _ -> {|{"a":|})))));
  (* Without the cap this line took seconds of recursion. *)
  let started = Unix.gettimeofday () in
  check_bool "1M deep is rejected" true
    (Result.is_error (Jsonl.parse (String.make 1_000_000 '[')));
  check_bool "rejected within 1 s" true (Unix.gettimeofday () -. started < 1.0)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let test_wire_defaults () =
  match Wire.parse_request {|{"op":"query","id":7,"query":"q() :- edge(X,Y)."}|} with
  | Ok (Wire.Query q) ->
    check_bool "id echoed" true (q.Wire.id = Json.Int 7);
    Alcotest.(check string) "default method" "bucket-elimination" q.Wire.meth;
    check_bool "ladder defaults on" true q.Wire.ladder;
    check_bool "no deadline by default" true (q.Wire.deadline_ms = None);
    check_int "default seed" 0 q.Wire.seed
  | Ok _ -> Alcotest.fail "parsed as the wrong op"
  | Error (_, msg, _) -> Alcotest.failf "rejected: %s" msg

let test_wire_type_errors_keep_id () =
  match Wire.parse_request {|{"op":"query","id":9,"query":5}|} with
  | Error (_, _, Json.Int 9) -> ()
  | Error (_, _, id) -> Alcotest.failf "lost the id: %s" (Json.to_string id)
  | Ok _ -> Alcotest.fail "accepted a non-string query"

(* A line that is not JSON is a parse error; JSON that is not a valid
   request is a bad request. *)
let test_wire_rejects () =
  let rejects kind line =
    match Wire.parse_request line with
    | Error (k, _, _) ->
      Alcotest.(check string)
        (Printf.sprintf "kind of %S" line)
        (Wire.error_kind_label kind) (Wire.error_kind_label k)
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  rejects Wire.Parse_error "not json at all";
  rejects Wire.Parse_error "not json";
  rejects Wire.Parse_error {|{"op":"ping"|};
  rejects Wire.Parse_error (String.make 600 '[');
  rejects Wire.Bad_request {|[1,2,3]|};
  rejects Wire.Bad_request {|"ping"|};
  rejects Wire.Bad_request {|{"id":1}|};
  rejects Wire.Bad_request {|{"op":7}|};
  rejects Wire.Bad_request {|{"op":"transmogrify"}|};
  rejects Wire.Bad_request {|{"op":"query"}|};
  rejects Wire.Bad_request {|{"op":"query","query":"q() :- e(X).","ladder":"yes"}|};
  match Wire.parse_request {|{"op":"transmogrify","id":3}|} with
  | Error (Wire.Bad_request, _, Json.Int 3) -> ()
  | Error (k, _, id) ->
    Alcotest.failf "unknown op: kind %s, id %s" (Wire.error_kind_label k)
      (Json.to_string id)
  | Ok _ -> Alcotest.fail "accepted an unknown op"

(* Fuzz: every byte string gets exactly one typed result from
   [parse_request] — a request, or a [parse]/[bad-request] error — with
   no exception and in bounded time. The generators aim at the parser's
   edges: truncated requests, nesting around [Jsonl.max_depth], long
   strings, invalid UTF-8 and fields of the wrong type. *)
let wire_fuzz_arbitrary =
  let open QCheck.Gen in
  let valid =
    [
      {|{"op":"query","id":1,"query":"q(X) :- edge(X,Y).","limit":5}|};
      {|{"op":"query","id":"a","query":"p() :- e(A,B), e(B,C).","method":"wcoj","ladder":false,"deadline_ms":50}|};
      {|{"op":"query","query":"q(X) :- e(X,Y).","cursor":"c1","seed":3,"fuel":9}|};
      {|{"op":"ping","id":[1,{"k":null}]}|};
      {|{"op":"metrics"}|};
      {|{"op":"stats","id":2.5}|};
    ]
  in
  let truncated =
    oneofl valid >>= fun line ->
    int_bound (String.length line) >|= fun n -> String.sub line 0 n
  in
  let nesting =
    int_range (Jsonl.max_depth - 3) (Jsonl.max_depth + 3) >>= fun depth ->
    oneofl [ ("[", "]"); ({|{"a":|}, "}") ] >>= fun (opening, closing) ->
    bool >>= fun closed ->
    bool >|= fun as_id ->
    let body =
      String.concat "" (List.init depth (fun _ -> opening))
      ^ "1"
      ^ if closed then String.concat "" (List.init depth (fun _ -> closing))
        else ""
    in
    if as_id then {|{"op":"ping","id":|} ^ body ^ "}" else body
  in
  let long_string =
    int_range 10_000 200_000 >>= fun n ->
    char_range 'a' 'z' >>= fun c ->
    bool >|= fun terminated ->
    {|{"op":"query","query":"|} ^ String.make n c
    ^ if terminated then {|"}|} else ""
  in
  let invalid_utf8 =
    oneofl valid >>= fun line ->
    int_bound (String.length line) >>= fun at ->
    list_size (int_range 1 6) (char_range '\x80' '\xff') >|= fun bytes ->
    String.sub line 0 at
    ^ String.of_seq (List.to_seq bytes)
    ^ String.sub line at (String.length line - at)
  in
  let wrong_type =
    oneofl
      [ "id"; "query"; "method"; "ladder"; "deadline_ms"; "max_tuples";
        "max_total"; "fuel"; "max_answers"; "limit"; "cursor"; "chaos";
        "seed"; "op" ]
    >>= fun field ->
    oneofl
      [ "7"; "-1"; "2.5"; "true"; "null"; {|"s"|}; "[]"; "[1,2]"; "{}";
        {|{"x":1}|}; "1e999"; "99999999999999999999" ]
    >|= fun value ->
    Printf.sprintf {|{"op":"query","query":"q(X) :- e(X,Y).","%s":%s}|} field
      value
  in
  let noise = string_size ~gen:char (int_range 0 64) in
  QCheck.make
    ~print:(fun s ->
      if String.length s > 200 then
        Printf.sprintf "%S... (%d bytes)" (String.sub s 0 200) (String.length s)
      else Printf.sprintf "%S" s)
    (oneof [ truncated; nesting; long_string; invalid_utf8; wrong_type; noise ])

let prop_wire_fuzz =
  qtest ~count:400 "fuzz: one typed result per byte string, in bounded time"
    wire_fuzz_arbitrary (fun line ->
      let started = Unix.gettimeofday () in
      let typed =
        match Wire.parse_request line with
        | Ok _ | Error ((Wire.Parse_error | Wire.Bad_request), _, _) -> true
        | Error _ -> false
      in
      typed && Unix.gettimeofday () -. started < 0.5)

let test_wire_response_encoding () =
  let reparse r =
    match Jsonl.parse (Wire.response_to_string r) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "unparseable response: %s" msg
  in
  let failed =
    reparse (Wire.Failed (Json.Int 3, Wire.Aborted "deadline", "too slow"))
  in
  check_bool "error status" true
    (Wire.field failed "status" = Some (Json.String "error"));
  check_bool "typed kind" true
    (Wire.field failed "kind" = Some (Json.String "abort"));
  check_bool "abort reason label" true
    (Wire.field failed "reason" = Some (Json.String "deadline"));
  let shed = reparse (Wire.Failed (Json.Null, Wire.Overloaded, "full")) in
  check_bool "overloaded kind" true
    (Wire.field shed "kind" = Some (Json.String "overloaded"))

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)

(* A variable bijection plus an atom permutation: the template-instance
   transformations the plan cache must see through. *)
let scramble ~seed cq =
  let rng = Graphlib.Rng.make seed in
  let vars = Array.of_list (Cq.vars cq) in
  let images = Array.copy vars in
  Graphlib.Rng.shuffle rng images;
  let map = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace map v images.(i)) vars;
  let rename v = Hashtbl.find map v in
  let atoms =
    List.map
      (fun a -> { Cq.rel = a.Cq.rel; vars = List.map rename a.Cq.vars })
      cq.Cq.atoms
  in
  let atoms = Graphlib.Rng.shuffle_list rng atoms in
  Cq.make ~atoms ~free:(List.map rename cq.Cq.free)

let parse_q text = (Conjunctive.Parse.query_exn text).Conjunctive.Parse.query

let test_canon_isomorphic_queries_agree () =
  let a = parse_q "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  let b = parse_q "p(A,C) :- edge(B,C), edge(A,B)." in
  let ca = Canon.canonicalize a and cb = Canon.canonicalize b in
  check_bool "isomorphic queries share a canonical form" true
    (Canon.equal ca cb);
  check_int "and a hash" ca.Canon.hash cb.Canon.hash

let test_canon_distinguishes_structure () =
  let path = parse_q "q(X,Z) :- edge(X,Y), edge(Y,Z)." in
  let fork = parse_q "q(Y,Z) :- edge(X,Y), edge(X,Z)." in
  check_bool "path and fork differ" false
    (Canon.equal (Canon.canonicalize path) (Canon.canonicalize fork));
  let free_first = parse_q "q(X) :- edge(X,Y)." in
  let free_second = parse_q "q(Y) :- edge(X,Y)." in
  check_bool "free position matters" false
    (Canon.equal
       (Canon.canonicalize free_first)
       (Canon.canonicalize free_second))

let test_canon_idempotent () =
  let cq = parse_q "q(X,Z) :- edge(X,Y), edge(Y,Z), edge(Z,W)." in
  let c = Canon.canonicalize cq in
  let c' = Canon.canonicalize c.Canon.query in
  check_bool "canonical form is a fixpoint" true (Canon.equal c c')

let test_canon_rename_is_faithful () =
  let cq = parse_q "q(X,Z) :- edge(X,Y), edge(Y,Z)." in
  let c = Canon.canonicalize cq in
  (* to_canonical applied to the source query must give the canonical
     query's atoms (up to the atom sort) and free list. *)
  let renamed_free = List.map (Canon.rename c) cq.Cq.free in
  check_bool "free list renamed in order" true
    (renamed_free = c.Canon.query.Cq.free);
  List.iter
    (fun a ->
      let image = List.map (Canon.rename c) a.Cq.vars in
      check_bool "every source atom appears renamed" true
        (List.exists
           (fun b -> b.Cq.rel = a.Cq.rel && b.Cq.vars = image)
           c.Canon.query.Cq.atoms))
    cq.Cq.atoms

let canon_invariance_prop =
  qtest ~count:60 "canonical form is renaming/permutation invariant"
    QCheck.(pair Helpers.graph_arbitrary small_int)
    (fun (g, seed) ->
      let cq =
        coloring_query ~mode:(Conjunctive.Encode.Fraction 0.4) ~seed:3 g
      in
      let scrambled = scramble ~seed cq in
      Canon.equal (Canon.canonicalize cq) (Canon.canonicalize scrambled))

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)

let test_cache_counters_and_lru () =
  let c = Serve.Plan_cache.create ~capacity:2 () in
  let v, hit = Serve.Plan_cache.find_or_add c "a" (fun () -> 1) in
  check_bool "first lookup misses" false hit;
  check_int "compiled value returned" 1 v;
  let v, hit = Serve.Plan_cache.find_or_add c "a" (fun () -> 99) in
  check_bool "second lookup hits" true hit;
  check_int "cached value, not recompiled" 1 v;
  ignore (Serve.Plan_cache.find_or_add c "b" (fun () -> 2));
  (* touch "a" so "b" is the LRU entry when "c" arrives *)
  ignore (Serve.Plan_cache.find c "a");
  ignore (Serve.Plan_cache.find_or_add c "c" (fun () -> 3));
  check_int "capacity bound holds" 2 (Serve.Plan_cache.size c);
  check_int "one eviction" 1 (Serve.Plan_cache.evictions c);
  check_bool "LRU entry evicted" true (Serve.Plan_cache.find c "b" = None);
  check_bool "recently used entry survives" true
    (Serve.Plan_cache.find c "a" = Some 1)

let test_cache_racing_insert_keeps_first () =
  let c = Serve.Plan_cache.create () in
  let first = Serve.Plan_cache.add c "k" [ 1 ] in
  let second = Serve.Plan_cache.add c "k" [ 2 ] in
  check_bool "first insert wins" true (first == second && first = [ 1 ])

let test_cache_key_injective_on_templates () =
  let key text =
    Serve.Plan_cache.key_of
      ~canon:(Canon.canonicalize (parse_q text))
      ~meth:"bucket-elimination"
  in
  Alcotest.(check string)
    "isomorphic instantiations share a key"
    (key "q(X,Z) :- edge(X,Y), edge(Y,Z).")
    (key "p(A,C) :- edge(B,C), edge(A,B).");
  check_bool "different structures get different keys" true
    (key "q(X,Z) :- edge(X,Y), edge(Y,Z)."
    <> key "q(Y,Z) :- edge(X,Y), edge(X,Z).");
  check_bool "the method is part of the key" true
    (Serve.Plan_cache.key_of
       ~canon:(Canon.canonicalize (parse_q "q(X) :- edge(X,Y)."))
       ~meth:"wcoj"
    <> Serve.Plan_cache.key_of
         ~canon:(Canon.canonicalize (parse_q "q(X) :- edge(X,Y)."))
         ~meth:"reordering")

let test_cache_save_load_roundtrip () =
  let path = Filename.temp_file "ppr-cache-test" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let c = Serve.Plan_cache.create ~capacity:8 () in
  ignore (Serve.Plan_cache.add c "old" [ 1 ]);
  ignore (Serve.Plan_cache.add c "mid" [ 2 ]);
  ignore (Serve.Plan_cache.add c "new" [ 3 ]);
  ignore (Serve.Plan_cache.find c "old") (* refresh: "mid" is now LRU *);
  check_int "three entries saved" 3 (Serve.Plan_cache.save c path);
  let c' = Serve.Plan_cache.create ~capacity:8 () in
  check_int "three entries restored" 3 (Serve.Plan_cache.load c' path);
  check_int "restored size" 3 (Serve.Plan_cache.size c');
  List.iter
    (fun (k, v) ->
      check_bool ("restored value " ^ k) true
        (Serve.Plan_cache.find c' k = Some v))
    [ ("old", [ 1 ]); ("mid", [ 2 ]); ("new", [ 3 ]) ];
  (* The snapshot preserves recency: loading into a 2-slot cache must
     evict the oldest entry ("mid"), exactly as the live cache would. *)
  let tiny = Serve.Plan_cache.create ~capacity:2 () in
  ignore (Serve.Plan_cache.load tiny path);
  check_bool "LRU order survives the roundtrip" true
    (Serve.Plan_cache.find tiny "mid" = None
    && Serve.Plan_cache.find tiny "old" <> None
    && Serve.Plan_cache.find tiny "new" <> None)

let test_cache_load_rejects_corrupt () =
  let path = Filename.temp_file "ppr-cache-test" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "not a cache snapshot at all";
  close_out oc;
  let c = Serve.Plan_cache.create () in
  check_int "corrupt file ignored" 0 (Serve.Plan_cache.load c path);
  check_int "cache untouched" 0 (Serve.Plan_cache.size c);
  check_int "missing file ignored" 0
    (Serve.Plan_cache.load c (path ^ ".does-not-exist"))

let test_cache_load_rejects_bit_flip () =
  let path = Filename.temp_file "ppr-cache-test" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let good = Serve.Plan_cache.create () in
  ignore (Serve.Plan_cache.add good "a" [ 1; 2; 3 ]);
  ignore (Serve.Plan_cache.add good "b" [ 4; 5 ]);
  ignore (Serve.Plan_cache.save good path);
  List.iter
    (fun corrupt ->
      write_file path corrupt;
      let c = Serve.Plan_cache.create () in
      check_int "bit-flipped snapshot ignored" 0 (Serve.Plan_cache.load c path);
      check_int "cache untouched" 0 (Serve.Plan_cache.size c))
    (bit_flipped_bodies path)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let query_req ?(id = Json.Null) ?(meth = "bucket-elimination") ?(ladder = true)
    ?deadline_ms ?max_tuples ?max_total ?fuel ?max_answers ?limit ?cursor
    ?chaos ?(seed = 0) text =
  Wire.Query
    {
      Wire.id;
      text;
      meth;
      ladder;
      deadline_ms;
      max_tuples;
      max_total;
      fuel;
      max_answers;
      limit;
      cursor;
      chaos;
      seed;
    }

let with_engine ?config f =
  let e = Serve.Engine.create ?config coloring_db in
  Fun.protect ~finally:(fun () -> Serve.Engine.stop e) (fun () -> f e)

let test_engine_answers_match_direct_run () =
  with_engine @@ fun e ->
  match Serve.Engine.submit e (query_req "ans(X,Y) :- edge(X,Y).") with
  | Wire.Answer (_, a) ->
    check_int "cardinality" 6 a.Wire.cardinality;
    check_bool "nonempty" true a.Wire.nonempty;
    check_bool "all rows returned" false a.Wire.truncated;
    let expected =
      [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 1 ]; [ 2; 3 ]; [ 3; 1 ]; [ 3; 2 ] ]
    in
    check_bool "rows in free order" true
      (List.sort compare a.Wire.answers = expected)
  | r -> Alcotest.failf "expected an answer, got %s" (Wire.response_to_string r)

let test_engine_boolean_and_truncation () =
  with_engine @@ fun e ->
  (match Serve.Engine.submit e (query_req "q() :- edge(X,Y), edge(Y,X).") with
  | Wire.Answer (_, a) ->
    check_bool "boolean query reports satisfiability" true a.Wire.nonempty;
    check_bool "no rows for an empty head" true (a.Wire.answers = [])
  | r -> Alcotest.failf "boolean query failed: %s" (Wire.response_to_string r));
  match
    Serve.Engine.submit e (query_req ~max_answers:2 "ans(X,Y) :- edge(X,Y).")
  with
  | Wire.Answer (_, a) ->
    check_int "row cap respected" 2 (List.length a.Wire.answers);
    check_bool "truncation flagged" true a.Wire.truncated;
    check_int "true cardinality still reported" 6 a.Wire.cardinality
  | r -> Alcotest.failf "truncated query failed: %s" (Wire.response_to_string r)

let test_engine_cache_hits_are_tuple_identical () =
  with_engine @@ fun e ->
  let ask text =
    match Serve.Engine.submit e (query_req text) with
    | Wire.Answer (_, a) -> a
    | r -> Alcotest.failf "query failed: %s" (Wire.response_to_string r)
  in
  let cold = ask "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  check_bool "first run misses" false cold.Wire.cache_hit;
  let warm = ask "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  check_bool "identical resubmission hits" true warm.Wire.cache_hit;
  check_bool "hit returns identical tuples" true
    (cold.Wire.answers = warm.Wire.answers);
  let renamed = ask "out(P,R) :- edge(Q,R), edge(P,Q)." in
  check_bool "isomorphic instantiation hits" true renamed.Wire.cache_hit;
  check_bool "renamed instantiation gets identical tuples" true
    (cold.Wire.answers = renamed.Wire.answers)

(* The acceptance property: for random templates, a plan-cache hit
   produces exactly the tuples a cold evaluation produces. *)
let engine_cache_identity_prop =
  qtest ~count:25 "cache hits are tuple-identical on random templates"
    QCheck.(pair Helpers.tiny_graph_arbitrary small_int)
    (fun (g, seed) ->
      let cq =
        coloring_query ~mode:(Conjunctive.Encode.Fraction 0.5) ~seed:5 g
      in
      let text cq =
        let var v = Printf.sprintf "V%d" v in
        Printf.sprintf "q(%s) :- %s."
          (String.concat ", " (List.map var cq.Cq.free))
          (String.concat ", "
             (List.map
                (fun a ->
                  Printf.sprintf "%s(%s)" a.Cq.rel
                    (String.concat ", " (List.map var a.Cq.vars)))
                cq.Cq.atoms))
      in
      with_engine @@ fun e ->
      let ask t =
        match Serve.Engine.submit e (query_req ~max_answers:10_000 t) with
        | Wire.Answer (_, a) -> (List.sort compare a.Wire.answers, a.Wire.cache_hit)
        | r ->
          QCheck.Test.fail_reportf "query failed: %s" (Wire.response_to_string r)
      in
      let cold, hit0 = ask (text cq) in
      let warm, hit1 = ask (text (scramble ~seed cq)) in
      (not hit0) && hit1 && cold = warm)

let test_engine_typed_failures () =
  with_engine @@ fun e ->
  let kind_of r =
    match r with
    | Wire.Failed (_, kind, _) -> Wire.error_kind_label kind
    | r -> Alcotest.failf "expected a failure, got %s" (Wire.response_to_string r)
  in
  Alcotest.(check string)
    "unparseable query text" "parse"
    (kind_of (Serve.Engine.submit e (query_req "this is not datalog (")));
  Alcotest.(check string)
    "unknown method" "bad-request"
    (kind_of (Serve.Engine.submit e (query_req ~meth:"quantum" "q() :- edge(X,Y).")));
  Alcotest.(check string)
    "bad chaos spec" "bad-request"
    (kind_of
       (Serve.Engine.submit e (query_req ~chaos:"frobnicate:1" "q() :- edge(X,Y).")));
  (match
     Serve.Engine.submit e
       (query_req ~ladder:false ~max_tuples:1 "ans(X,Y) :- edge(X,Y).")
   with
  | Wire.Failed (_, Wire.Aborted "cardinality", _) -> ()
  | r -> Alcotest.failf "expected a cardinality abort: %s" (Wire.response_to_string r));
  (* crash containment: a query over a relation the database lacks is an
     internal error for that session only *)
  Alcotest.(check string)
    "missing relation contained" "internal"
    (kind_of (Serve.Engine.submit e (query_req "q(X) :- nonexistent(X, Y).")));
  match Serve.Engine.submit e (query_req "ans(X,Y) :- edge(X,Y).") with
  | Wire.Answer _ -> ()
  | r ->
    Alcotest.failf "engine should survive a crashed session: %s"
      (Wire.response_to_string r)

(* ------------------------------------------------------------------ *)
(* Pagination: parked cursors, single-use tokens, bounded table        *)

let answer_of e req =
  match Serve.Engine.submit e req with
  | Wire.Answer (_, a) -> a
  | r -> Alcotest.failf "expected an answer, got %s" (Wire.response_to_string r)

let expect_expired e req =
  match Serve.Engine.submit e req with
  | Wire.Failed (_, Wire.Cursor_expired, _) -> ()
  | r ->
    Alcotest.failf "expected cursor-expired, got %s" (Wire.response_to_string r)

let test_engine_pagination_exactly_once () =
  with_engine @@ fun e ->
  let whole = answer_of e (query_req "ans(X,Y) :- edge(X,Y).") in
  let rec drain ?cursor page acc =
    let a = answer_of e (query_req ~limit:2 ?cursor "ans(X,Y) :- edge(X,Y).") in
    Alcotest.(check (option int)) "page index" (Some page) a.Wire.page;
    check_int "page cardinality counts the page" (List.length a.Wire.answers)
      a.Wire.cardinality;
    let acc = acc @ a.Wire.answers in
    match a.Wire.next_cursor with
    | Some c ->
      check_bool "truncated while pages remain" true a.Wire.truncated;
      drain ~cursor:c (page + 1) acc
    | None ->
      check_bool "final page is not truncated" false a.Wire.truncated;
      acc
  in
  let rows = drain 0 [] in
  check_int "no row served twice" (List.length rows)
    (List.length (List.sort_uniq compare rows));
  check_bool "paged union = whole answer" true
    (List.sort compare rows = List.sort compare whole.Wire.answers);
  check_bool "whole answer was not paged" true (whole.Wire.page = None)

let test_engine_cursor_tokens_single_use () =
  with_engine @@ fun e ->
  (* a token the engine never issued *)
  expect_expired e (query_req ~limit:2 ~cursor:"c999" "ans(X,Y) :- edge(X,Y).");
  let p0 = answer_of e (query_req ~limit:2 "ans(X,Y) :- edge(X,Y).") in
  let t0 = Option.get p0.Wire.next_cursor in
  let p1 = answer_of e (query_req ~limit:2 ~cursor:t0 "ans(X,Y) :- edge(X,Y).") in
  (* the consumed token is dead even though the session lives on *)
  expect_expired e (query_req ~limit:2 ~cursor:t0 "ans(X,Y) :- edge(X,Y).");
  (* ... and the freshly-issued one still works *)
  let t1 = Option.get p1.Wire.next_cursor in
  let p2 = answer_of e (query_req ~limit:2 ~cursor:t1 "ans(X,Y) :- edge(X,Y).") in
  Alcotest.(check (option int)) "replay did not advance the stream" (Some 2)
    (Some (Option.get p2.Wire.page))

let test_engine_cursor_tokens_unguessable () =
  with_engine @@ fun e ->
  let q = "ans(X,Y) :- edge(X,Y)." in
  let a = answer_of e (query_req ~limit:2 q) in
  let token = Option.get a.Wire.next_cursor in
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  check_bool "token is a 64-bit random hex handle" true
    (String.length token = 17
    && token.[0] = 'c'
    && String.for_all is_hex (String.sub token 1 16));
  (* the old sequential scheme: a neighbor guessing small counters must
     always get the typed expired-cursor error, never the stream *)
  for i = 1 to 50 do
    expect_expired e (query_req ~limit:2 ~cursor:(Printf.sprintf "c%d" i) q)
  done;
  (* incrementing a live token's bits must miss too *)
  let bits = Int64.of_string ("0x" ^ String.sub token 1 16) in
  expect_expired e
    (query_req ~limit:2 ~cursor:(Printf.sprintf "c%016Lx" (Int64.add bits 1L)) q);
  (* none of the guesses consumed the real session *)
  let p1 = answer_of e (query_req ~limit:2 ~cursor:token q) in
  Alcotest.(check (option int)) "real token still pages" (Some 1) p1.Wire.page

let test_engine_streaming_metrics_honest () =
  with_engine @@ fun e ->
  let q = "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  let cold = answer_of e (query_req ~limit:2 q) in
  check_bool "first stream misses" false cold.Wire.cache_hit;
  (* continuation pages report the stream's original verdict and bill no
     compile: the one compile happened when the stream opened *)
  let cold_next =
    answer_of e (query_req ~limit:2 ~cursor:(Option.get cold.Wire.next_cursor) q)
  in
  check_bool "continuation keeps the original miss verdict" false
    cold_next.Wire.cache_hit;
  check_bool "continuation bills no compile" true
    (cold_next.Wire.compile_seconds = 0.0);
  (* a second streamed session replays the cached artifact: an honest
     hit with zero compile time (cursor-open work is execution) *)
  let warm = answer_of e (query_req ~limit:2 q) in
  check_bool "second stream hits" true warm.Wire.cache_hit;
  check_bool "hit bills no compile" true (warm.Wire.compile_seconds = 0.0);
  let warm_next =
    answer_of e (query_req ~limit:2 ~cursor:(Option.get warm.Wire.next_cursor) q)
  in
  check_bool "warm continuation reports the hit" true warm_next.Wire.cache_hit

let test_engine_large_answer_caps () =
  (* [answer_rows] must survive (and preserve order through) a page as
     large as the whole answer — tens of thousands of rows. *)
  let n = 50_000 in
  let db = Conjunctive.Database.create () in
  Conjunctive.Database.add db "big"
    (relation [ 0; 1 ] (List.init n (fun i -> [ i; i ])));
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      max_answers_cap = 2 * n;
    }
  in
  let e = Serve.Engine.create ~config db in
  Fun.protect ~finally:(fun () -> Serve.Engine.stop e) @@ fun () ->
  (match
     Serve.Engine.submit e (query_req ~max_answers:n "ans(X,Y) :- big(X,Y).")
   with
  | Wire.Answer (_, a) ->
    check_int "every row served" n (List.length a.Wire.answers);
    check_bool "not truncated at the exact cap" false a.Wire.truncated;
    check_bool "rows in order" true
      (a.Wire.answers = List.init n (fun i -> [ i; i ]))
  | r -> Alcotest.failf "large answer failed: %s" (Wire.response_to_string r));
  match
    Serve.Engine.submit e
      (query_req ~max_answers:(n - 1) "ans(X,Y) :- big(X,Y).")
  with
  | Wire.Answer (_, a) ->
    check_int "capped page" (n - 1) (List.length a.Wire.answers);
    check_bool "truncation flagged" true a.Wire.truncated;
    check_bool "prefix preserved in order" true
      (a.Wire.answers = List.init (n - 1) (fun i -> [ i; i ]))
  | r -> Alcotest.failf "capped answer failed: %s" (Wire.response_to_string r)

let test_engine_cursor_eviction_is_typed () =
  let config = { Serve.Engine.default_config with cursor_capacity = 1 } in
  with_engine ~config @@ fun e ->
  let a = answer_of e (query_req ~limit:2 "ans(X,Y) :- edge(X,Y).") in
  let ta = Option.get a.Wire.next_cursor in
  (* parking a second paginated session evicts the first (capacity 1) *)
  let b = answer_of e (query_req ~limit:2 "ans(X,Y) :- edge(Y,X).") in
  let tb = Option.get b.Wire.next_cursor in
  expect_expired e (query_req ~limit:2 ~cursor:ta "ans(X,Y) :- edge(X,Y).");
  let b1 = answer_of e (query_req ~limit:2 ~cursor:tb "ans(X,Y) :- edge(Y,X).") in
  Alcotest.(check (option int)) "survivor still pages" (Some 1) b1.Wire.page

let test_engine_deadline_sheds_typed () =
  with_engine @@ fun e ->
  (* a 100ms stall against a 30ms deadline: the ladder stops immediately
     because the overall deadline is exhausted mid-rung *)
  match
    Serve.Engine.submit e
      (query_req ~deadline_ms:30 ~chaos:"stall:1:0.1"
         "ans(X,Z) :- edge(X,Y), edge(Y,Z).")
  with
  | Wire.Failed (_, Wire.Aborted "deadline", _) -> ()
  | r -> Alcotest.failf "expected a deadline abort: %s" (Wire.response_to_string r)

let collect_async e reqs =
  let lock = Mutex.create () in
  let done_ = Condition.create () in
  let got = ref [] in
  let n = List.length reqs in
  List.iter
    (fun r ->
      Serve.Engine.submit_async e r ~reply:(fun resp ->
          Mutex.lock lock;
          got := resp :: !got;
          if List.length !got = n then Condition.signal done_;
          Mutex.unlock lock))
    reqs;
  Mutex.lock lock;
  while List.length !got < n do
    Condition.wait done_ lock
  done;
  let r = !got in
  Mutex.unlock lock;
  r

let test_engine_admission_control () =
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 2;
    }
  in
  with_engine ~config @@ fun e ->
  (* the first request stalls its worker long enough for the flood
     behind it to pile onto the bounded queue *)
  let stall =
    query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
      "ans(X,Y) :- edge(X,Y)."
  in
  (* structurally distinct queries (paths of growing length), so none
     of them coalesce into a batch — each needs its own queue slot *)
  let path_query n =
    let atoms =
      List.init n (fun i -> Printf.sprintf "edge(X%d,X%d)" i (i + 1))
    in
    Printf.sprintf "ans(X0,X%d) :- %s." n (String.concat ", " atoms)
  in
  let flood =
    List.init 8 (fun i -> query_req ~id:(Json.Int i) (path_query (i + 2)))
  in
  let responses = collect_async e (stall :: flood) in
  let shed, rest =
    List.partition
      (function Wire.Failed (_, Wire.Overloaded, _) -> true | _ -> false)
      responses
  in
  check_int "every request answered exactly once" 9 (List.length responses);
  check_bool "admission control shed the overflow" true
    (List.length shed >= 1);
  List.iter
    (fun r ->
      match r with
      | Wire.Answer _ | Wire.Failed (_, Wire.Overloaded, _) -> ()
      | r ->
        Alcotest.failf "unexpected response under load: %s"
          (Wire.response_to_string r))
    rest

(* Like [collect_async], but each request names its fairness bucket. *)
let collect_async_clients e reqs =
  let lock = Mutex.create () in
  let done_ = Condition.create () in
  let got = ref [] in
  let n = List.length reqs in
  List.iter
    (fun (client, r) ->
      Serve.Engine.submit_async ~client e r ~reply:(fun resp ->
          Mutex.lock lock;
          got := resp :: !got;
          if List.length !got = n then Condition.signal done_;
          Mutex.unlock lock))
    reqs;
  Mutex.lock lock;
  while List.length !got < n do
    Condition.wait done_ lock
  done;
  let r = !got in
  Mutex.unlock lock;
  r

let counter_value e name =
  Telemetry.Metrics.value
    (Telemetry.Metrics.counter (Serve.Engine.metrics e) name)

let string_contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Batched execution of identical canonical queries                     *)

let test_engine_batching_fans_out () =
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
    }
  in
  with_engine ~config @@ fun e ->
  let text = "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  (* a solo run for the reference answer (this also warms the cache),
     plus one run of the occupier's structure so the stall below is the
     only other compile the engine could possibly do *)
  let solo = answer_of e (query_req text) in
  check_bool "solo run is not batched" false solo.Wire.batched;
  ignore (answer_of e (query_req "ans(X,Y) :- edge(X,Y)."));
  let misses0 = Serve.Plan_cache.misses (Serve.Engine.cache e) in
  (* stall the only worker, then pile six identical queries (distinct
     clients) behind it: the first leads, five coalesce as followers *)
  let stall =
    (0, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
          "ans(X,Y) :- edge(X,Y).")
  in
  let flood =
    List.init 6 (fun i -> (i + 1, query_req ~id:(Json.Int i) text))
  in
  let responses = collect_async_clients e (stall :: flood) in
  let answers =
    List.filter_map
      (function Wire.Answer (Json.Int _, a) -> Some a | _ -> None)
      responses
  in
  check_int "all six identical queries answered" 6 (List.length answers);
  List.iter
    (fun a ->
      check_bool "tuple-identical to the solo run" true
        (a.Wire.answers = solo.Wire.answers);
      check_int "same cardinality as the solo run" solo.Wire.cardinality
        a.Wire.cardinality;
      check_bool "flagged batched" true a.Wire.batched)
    answers;
  check_bool "followers paid no compile" true
    (List.length (List.filter (fun a -> a.Wire.compile_seconds = 0.0) answers)
    >= 5);
  check_int "the batch compiled nothing new" misses0
    (Serve.Plan_cache.misses (Serve.Engine.cache e));
  check_int "five coalesced requests counted" 5 (counter_value e "serve.batched")

let engine_batch_identity_prop =
  qtest ~count:8 "batched answers are tuple-identical to a solo run"
    Helpers.tiny_graph_arbitrary
    (fun g ->
      let cq =
        coloring_query ~mode:(Conjunctive.Encode.Fraction 0.5) ~seed:7 g
      in
      let text =
        let var v = Printf.sprintf "V%d" v in
        Printf.sprintf "q(%s) :- %s."
          (String.concat ", " (List.map var cq.Cq.free))
          (String.concat ", "
             (List.map
                (fun a ->
                  Printf.sprintf "%s(%s)" a.Cq.rel
                    (String.concat ", " (List.map var a.Cq.vars)))
                cq.Cq.atoms))
      in
      let config =
        {
          Serve.Engine.default_config with
          Serve.Engine.workers = 1;
          queue_depth = 32;
        }
      in
      with_engine ~config @@ fun e ->
      let solo =
        match Serve.Engine.submit e (query_req ~max_answers:10_000 text) with
        | Wire.Answer (_, a) -> a
        | r ->
          QCheck.Test.fail_reportf "solo run failed: %s"
            (Wire.response_to_string r)
      in
      let stall =
        (0, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.3"
              "ans(X,Y) :- edge(X,Y).")
      in
      let flood =
        List.init 4 (fun i ->
            (i + 1, query_req ~id:(Json.Int i) ~max_answers:10_000 text))
      in
      let answers =
        List.filter_map
          (function Wire.Answer (Json.Int _, a) -> Some a | _ -> None)
          (collect_async_clients e (stall :: flood))
      in
      List.length answers = 4
      && List.for_all
           (fun a ->
             a.Wire.batched && a.Wire.answers = solo.Wire.answers
             && a.Wire.cardinality = solo.Wire.cardinality)
           answers)

let test_engine_batch_leader_abort_fans_out () =
  (* When the shared execution aborts, every coalesced member gets the
     same typed abort — never a hang, never an internal error. *)
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
    }
  in
  with_engine ~config @@ fun e ->
  let stall =
    (0, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
          "ans(X,Y) :- edge(X,Y).")
  in
  (* six tuples against a one-tuple cap, ladder off: a certain abort *)
  let doomed =
    List.init 3 (fun i ->
        (i + 1, query_req ~id:(Json.Int i) ~ladder:false ~max_tuples:1
                  "ans(X,Z) :- edge(X,Y), edge(Y,Z)."))
  in
  let responses = collect_async_clients e (stall :: doomed) in
  let aborts =
    List.filter_map
      (function
        | Wire.Failed (Json.Int _, Wire.Aborted reason, _) -> Some reason
        | _ -> None)
      responses
  in
  check_int "all members aborted" 3 (List.length aborts);
  check_bool "all with the same typed reason" true
    (List.for_all (fun r -> r = "cardinality") aborts);
  check_int "followers still counted as coalesced" 2
    (counter_value e "serve.batched")

(* ------------------------------------------------------------------ *)
(* Cost-aware admission and per-client quotas                           *)

let test_engine_cost_shed_is_typed () =
  let config =
    { Serve.Engine.default_config with Serve.Engine.max_cost_log2 = Some 10.0 }
  in
  with_engine ~config @@ fun e ->
  (* four disconnected edge atoms, all free: any route must materialize
     the 6^4-row cross product, estimate ~ 4*log2 6 ~ 10.3 > 10 *)
  let big =
    "ans(A,B,C,D,E,F,G,H) :- edge(A,B), edge(C,D), edge(E,F), edge(G,H)."
  in
  (match Serve.Engine.submit e (query_req big) with
  | Wire.Failed (_, Wire.Shed_cost, msg) ->
    check_bool "message names the estimate" true
      (string_contains msg "2^10.3")
  | r -> Alcotest.failf "expected shed-cost, got %s" (Wire.response_to_string r));
  (* the boolean form of the same body is cheap (no output term): the
     estimator prices routes, not atom counts *)
  (match
     Serve.Engine.submit e
       (query_req "q() :- edge(A,B), edge(C,D), edge(E,F), edge(G,H).")
   with
  | Wire.Answer (_, a) -> check_bool "boolean form admitted" true a.Wire.nonempty
  | r -> Alcotest.failf "boolean form shed: %s" (Wire.response_to_string r));
  (* a cheap materializing query sails through *)
  (match Serve.Engine.submit e (query_req "ans(X,Y) :- edge(X,Y).") with
  | Wire.Answer _ -> ()
  | r -> Alcotest.failf "cheap query shed: %s" (Wire.response_to_string r));
  check_int "sheds counted" 1 (counter_value e "serve.shed_cost")

let test_engine_cost_estimate_is_exact_on_single_edge () =
  (* A single-atom query's estimate is exactly log2 of the relation's
     cardinality (every bound collapses to the edge cover of one atom):
     log2 6 ~ 2.58, so a 2.0 ceiling sheds it with that figure. *)
  let config =
    { Serve.Engine.default_config with Serve.Engine.max_cost_log2 = Some 2.0 }
  in
  with_engine ~config @@ fun e ->
  match Serve.Engine.submit e (query_req "ans(X,Y) :- edge(X,Y).") with
  | Wire.Failed (_, Wire.Shed_cost, msg) ->
    check_bool "estimate is log2(cardinality)" true
      (string_contains msg "2^2.6")
  | r -> Alcotest.failf "expected shed-cost, got %s" (Wire.response_to_string r)

let test_engine_backlog_cost_shed () =
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
      max_queue_cost_log2 = Some 5.0;
      batching = false;
    }
  in
  with_engine ~config @@ fun e ->
  let stall =
    (0, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
          "ans(X,Y) :- edge(X,Y).")
  in
  (* cheap (~2^2.6) then expensive (~2^5.2): the second would push the
     backlog past 2^5, so it is shed while the first one queues fine *)
  let cheap = (1, query_req ~id:(Json.String "cheap") "ans(X,Y) :- edge(Y,X).") in
  let pricey =
    (2, query_req ~id:(Json.String "pricey") "ans(X,Z) :- edge(X,Y), edge(Y,Z).")
  in
  let responses = collect_async_clients e [ stall; cheap; pricey ] in
  let by_id want =
    List.find_opt
      (fun r -> Wire.response_id r = Json.String want)
      responses
  in
  (match by_id "cheap" with
  | Some (Wire.Answer _) -> ()
  | r ->
    Alcotest.failf "cheap query should be served: %s"
      (match r with Some r -> Wire.response_to_string r | None -> "missing"));
  (match by_id "pricey" with
  | Some (Wire.Failed (_, Wire.Shed_cost, msg)) ->
    check_bool "message names the backlog ceiling" true
      (string_contains msg "backlog")
  | r ->
    Alcotest.failf "pricey query should be backlog-shed: %s"
      (match r with Some r -> Wire.response_to_string r | None -> "missing"));
  (* an idle daemon admits the same query: the aggregate ceiling never
     permanently blocks an affordable request *)
  match Serve.Engine.submit e (query_req "ans(X,Z) :- edge(X,Y), edge(Y,Z).") with
  | Wire.Answer _ -> ()
  | r ->
    Alcotest.failf "idle daemon should admit it: %s" (Wire.response_to_string r)

let test_engine_client_quota_sheds_only_flooder () =
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
      client_quota = Some 2;
    }
  in
  with_engine ~config @@ fun e ->
  let path_query n =
    let atoms =
      List.init n (fun i -> Printf.sprintf "edge(X%d,X%d)" i (i + 1))
    in
    Printf.sprintf "ans(X0,X%d) :- %s." n (String.concat ", " atoms)
  in
  let stall =
    (9, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
          "ans(X,Y) :- edge(X,Y).")
  in
  (* six structurally distinct queries from one client: two fit the
     quota, four are shed — and only the flooder's *)
  let flood =
    List.init 6 (fun i -> (1, query_req ~id:(Json.Int i) (path_query (i + 2))))
  in
  let polite = (2, query_req ~id:(Json.String "polite") (path_query 9)) in
  let responses = collect_async_clients e ((stall :: flood) @ [ polite ]) in
  let flood_sheds =
    List.filter
      (function
        | Wire.Failed (Json.Int _, Wire.Shed_quota, _) -> true | _ -> false)
      responses
  in
  let flood_answers =
    List.filter
      (function Wire.Answer (Json.Int _, _) -> true | _ -> false)
      responses
  in
  check_int "four of six shed by quota" 4 (List.length flood_sheds);
  check_int "two of six served" 2 (List.length flood_answers);
  (match
     List.find_opt
       (fun r -> Wire.response_id r = Json.String "polite")
       responses
   with
  | Some (Wire.Answer _) -> ()
  | r ->
    Alcotest.failf "the polite client must be unaffected: %s"
      (match r with Some r -> Wire.response_to_string r | None -> "missing"));
  check_int "quota sheds counted" 4 (counter_value e "serve.shed_quota")

let test_engine_cache_persists_across_restart () =
  (* The daemon-restart story: engine 1 compiles (including a prepared
     GHD decomposition), stop snapshots the cache, engine 2 starts from
     the snapshot and its very first request is a hit replaying the
     stored artifact — tuple-identically. *)
  let path = Filename.temp_file "ppr-engine-cache" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let config =
    { Serve.Engine.default_config with Serve.Engine.cache_file = Some path }
  in
  let ask e meth text =
    match Serve.Engine.submit e (query_req ~meth text) with
    | Wire.Answer (_, a) -> a
    | r -> Alcotest.failf "query failed: %s" (Wire.response_to_string r)
  in
  let text = "ans(X,Z) :- edge(X,Y), edge(Y,Z), edge(Z,X)." in
  let e1 = Serve.Engine.create ~config coloring_db in
  let cold_bucket = ask e1 "bucket-elimination" text in
  let cold_ghd = ask e1 "ghd" text in
  check_bool "cold runs miss" true
    ((not cold_bucket.Wire.cache_hit) && not cold_ghd.Wire.cache_hit);
  Serve.Engine.stop e1;
  check_bool "stop wrote the snapshot" true (Sys.file_exists path);
  let e2 = Serve.Engine.create ~config coloring_db in
  Fun.protect ~finally:(fun () -> Serve.Engine.stop e2) @@ fun () ->
  let warm_bucket = ask e2 "bucket-elimination" text in
  let warm_ghd = ask e2 "ghd" text in
  check_bool "restarted engine hits on first request" true
    (warm_bucket.Wire.cache_hit && warm_ghd.Wire.cache_hit);
  check_bool "replayed artifacts are tuple-identical" true
    (cold_bucket.Wire.answers = warm_bucket.Wire.answers
    && cold_ghd.Wire.answers = warm_ghd.Wire.answers)

let test_engine_per_client_fairness () =
  (* One worker, one flooding client, one victim: with round-robin
     admission the victim's single query is served after at most one of
     the flooder's queued jobs, not behind the whole backlog. *)
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
    }
  in
  with_engine ~config @@ fun e ->
  let lock = Mutex.create () in
  let done_ = Condition.create () in
  let order = ref [] in
  let submit ~client id chaos =
    Serve.Engine.submit_async ~client e
      (query_req ~id:(Json.String id) ?chaos "ans(X,Y) :- edge(X,Y).")
      ~reply:(fun r ->
        match r with
        | Wire.Answer _ ->
          Mutex.lock lock;
          order := id :: !order;
          Condition.signal done_;
          Mutex.unlock lock
        | r -> Alcotest.failf "unexpected response: %s" (Wire.response_to_string r))
  in
  let flood = 6 in
  (* The head request stalls the only worker long enough for everything
     below to be queued before the first pop. *)
  submit ~client:1 "head" (Some "stall:1:0.4");
  for i = 0 to flood - 1 do
    submit ~client:1 (Printf.sprintf "flood%d" i) (Some "stall:1:0.02")
  done;
  submit ~client:2 "victim" None;
  Mutex.lock lock;
  while List.length !order < flood + 2 do
    Condition.wait done_ lock
  done;
  let completion = List.rev !order in
  Mutex.unlock lock;
  let index_of id =
    let rec go i = function
      | [] -> Alcotest.failf "%s never completed" id
      | x :: _ when x = id -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 completion
  in
  check_bool
    (Printf.sprintf "victim not starved (completion order: %s)"
       (String.concat " " completion))
    true
    (index_of "victim" <= 2)

let test_engine_drain_and_shutdown () =
  let config =
    { Serve.Engine.default_config with Serve.Engine.workers = 1 }
  in
  let e = Serve.Engine.create ~config coloring_db in
  let lock = Mutex.create () in
  let answered = ref 0 in
  let submit_one i =
    Serve.Engine.submit_async e
      (query_req ~id:(Json.Int i) ~chaos:"stall:1:0.05" "ans(X,Y) :- edge(X,Y).")
      ~reply:(fun r ->
        match r with
        | Wire.Answer _ ->
          Mutex.lock lock;
          incr answered;
          Mutex.unlock lock
        | r ->
          Alcotest.failf "queued request not answered on drain: %s"
            (Wire.response_to_string r))
  in
  List.iter submit_one [ 0; 1; 2; 3 ];
  (* stop must answer all four queued sessions before returning *)
  Serve.Engine.stop e;
  check_int "every queued request answered before stop returned" 4 !answered;
  match Serve.Engine.submit e (query_req "q() :- edge(X,Y).") with
  | Wire.Failed (_, Wire.Shutting_down, _) -> ()
  | r ->
    Alcotest.failf "post-stop submission should be refused: %s"
      (Wire.response_to_string r)

(* ------------------------------------------------------------------ *)
(* Socket server                                                       *)

let connect_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let with_server ?config f =
  let server =
    Serve.Server.start ?config ~db:coloring_db
      (Serve.Server.Tcp ("127.0.0.1", 0))
  in
  let port =
    match Serve.Server.bound_address server with
    | Serve.Server.Tcp (_, p) -> p
    | _ -> Alcotest.fail "expected a TCP address"
  in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) (fun () -> f server port)

let test_server_end_to_end () =
  with_server @@ fun _server port ->
  let fd, ic, oc = connect_tcp port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ask line =
    send_line oc line;
    match Jsonl.parse (input_line ic) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "bad response: %s" msg
  in
  let pong = ask {|{"op":"ping","id":1}|} in
  check_bool "ping answers" true (Wire.field pong "pong" = Some (Json.Bool true));
  let ans = ask {|{"op":"query","id":2,"query":"ans(X,Y) :- edge(X,Y)."}|} in
  check_bool "query ok" true
    (Wire.field ans "status" = Some (Json.String "ok"));
  check_bool "cardinality over the wire" true
    (Wire.field ans "cardinality" = Some (Json.Int 6));
  let bad = ask "}{ not json" in
  check_bool "malformed line gets a typed parse error" true
    (Wire.field bad "kind" = Some (Json.String "parse"));
  let unknown = ask {|{"op":"transmogrify","id":3}|} in
  check_bool "unknown op gets a bad-request error with its id" true
    (Wire.field unknown "kind" = Some (Json.String "bad-request")
    && Wire.field unknown "id" = Some (Json.Int 3));
  let stats = ask {|{"op":"stats","id":3}|} in
  check_bool "stats counts the requests" true
    (match Wire.field stats "requests" with
    | Some (Json.Int n) -> n >= 1
    | _ -> false);
  let metrics = ask {|{"op":"metrics","id":4}|} in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "metrics dump mentions serving counters" true
    (match Wire.field metrics "metrics" with
    | Some (Json.String text) -> contains text "serve.requests"
    | _ -> false)

(* A line of a million '[' gets one typed error reply, promptly; the
   connection keeps working, and so does the daemon for a new client. *)
let test_server_rejects_deep_nesting () =
  with_server @@ fun _server port ->
  let exchange f =
    let fd, ic, oc = connect_tcp port in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        f (fun line ->
            send_line oc line;
            match Jsonl.parse (input_line ic) with
            | Ok v -> v
            | Error msg -> Alcotest.failf "bad response: %s" msg))
  in
  exchange (fun ask ->
      let started = Unix.gettimeofday () in
      let reply = ask (String.make 1_000_000 '[') in
      check_bool "answered within 1 s" true
        (Unix.gettimeofday () -. started < 1.0);
      check_bool "typed error" true
        (Wire.field reply "status" = Some (Json.String "error")
        && Wire.field reply "kind" = Some (Json.String "parse"));
      (* The next reply on this connection answers the next line: the
         deep line produced exactly one. *)
      let pong = ask {|{"op":"ping","id":1}|} in
      check_bool "one reply per line" true
        (Wire.field pong "id" = Some (Json.Int 1)));
  exchange (fun ask ->
      let ans = ask {|{"op":"query","id":2,"query":"ans(X,Y) :- edge(X,Y)."}|} in
      check_bool "a new connection is served" true
        (Wire.field ans "status" = Some (Json.String "ok")))

(* A 2 MiB line is over the 1 MiB line cap: it gets exactly one typed
   error, promptly, and the same connection then answers a ping. *)
let test_server_rejects_long_line () =
  with_server @@ fun _server port ->
  let fd, ic, oc = connect_tcp port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let started = Unix.gettimeofday () in
  send_line oc
    ({|{"op":"query","id":5,"query":"|} ^ String.make (2 lsl 20) 'x' ^ {|"}|});
  let reply =
    match Jsonl.parse (input_line ic) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "bad response: %s" msg
  in
  check_bool "answered within 1 s" true (Unix.gettimeofday () -. started < 1.0);
  check_bool "typed bad-request error" true
    (Wire.field reply "status" = Some (Json.String "error")
    && Wire.field reply "kind" = Some (Json.String "bad-request"));
  send_line oc {|{"op":"ping","id":6}|};
  match Jsonl.parse (input_line ic) with
  | Ok pong ->
    check_bool "the next reply is the ping's" true
      (Wire.field pong "id" = Some (Json.Int 6)
      && Wire.field pong "pong" = Some (Json.Bool true))
  | Error msg -> Alcotest.failf "bad response: %s" msg

let test_server_concurrent_clients () =
  with_server @@ fun _server port ->
  let clients = 6 and per_client = 4 in
  let errors = Mutex.create () and failed = ref [] in
  let client c =
    let fd, ic, oc = connect_tcp port in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        for i = 0 to per_client - 1 do
          send_line oc
            (Printf.sprintf
               {|{"op":"query","id":%d,"query":"ans(X,Z) :- edge(X,Y), edge(Y,Z)."}|}
               ((c * per_client) + i))
        done;
        let seen = ref [] in
        for _ = 1 to per_client do
          match Jsonl.parse (input_line ic) with
          | Ok v -> (
            match (Wire.field v "id", Wire.field v "status") with
            | Some (Json.Int id), Some (Json.String "ok") -> seen := id :: !seen
            | _, _ ->
              Mutex.lock errors;
              failed := Json.to_string v :: !failed;
              Mutex.unlock errors)
          | Error msg ->
            Mutex.lock errors;
            failed := msg :: !failed;
            Mutex.unlock errors
        done;
        let expected = List.init per_client (fun i -> (c * per_client) + i) in
        if List.sort compare !seen <> expected then begin
          Mutex.lock errors;
          failed := Printf.sprintf "client %d: wrong ids" c :: !failed;
          Mutex.unlock errors
        end)
  in
  let threads = List.init clients (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  check_bool
    (Printf.sprintf "all clients served cleanly: %s"
       (String.concat "; " !failed))
    true (!failed = [])

let test_server_unix_socket_and_drain () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppr-serve-test-%d.sock" (Unix.getpid ()))
  in
  let server =
    Serve.Server.start ~db:coloring_db (Serve.Server.Unix_socket path)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* a stalled query left in flight when stop begins: the drain must
     still answer it before the server returns from stop *)
  send_line oc
    {|{"op":"query","id":1,"chaos":"stall:1:0.2","query":"ans(X,Y) :- edge(X,Y)."}|};
  Thread.delay 0.05;
  let stopper = Thread.create (fun () -> Serve.Server.stop server) () in
  let response = Jsonl.parse (input_line ic) in
  Thread.join stopper;
  (match response with
  | Ok v ->
    check_bool "in-flight session answered during drain" true
      (Wire.field v "status" = Some (Json.String "ok"))
  | Error msg -> Alcotest.failf "drain dropped the in-flight session: %s" msg);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  check_bool "socket file removed on shutdown" false (Sys.file_exists path)

let () =
  Alcotest.run "serve"
    [
      ( "jsonl",
        [
          Alcotest.test_case "round trips" `Quick test_jsonl_round_trips;
          Alcotest.test_case "escapes and numbers" `Quick
            test_jsonl_escapes_and_numbers;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
          Alcotest.test_case "nesting cap" `Quick test_jsonl_nesting_cap;
        ] );
      ( "wire",
        [
          Alcotest.test_case "defaults" `Quick test_wire_defaults;
          Alcotest.test_case "type errors keep the id" `Quick
            test_wire_type_errors_keep_id;
          Alcotest.test_case "rejects bad requests" `Quick test_wire_rejects;
          Alcotest.test_case "response encoding" `Quick
            test_wire_response_encoding;
          prop_wire_fuzz;
        ] );
      ( "canon",
        [
          Alcotest.test_case "isomorphic queries agree" `Quick
            test_canon_isomorphic_queries_agree;
          Alcotest.test_case "distinguishes structure" `Quick
            test_canon_distinguishes_structure;
          Alcotest.test_case "idempotent" `Quick test_canon_idempotent;
          Alcotest.test_case "renaming is faithful" `Quick
            test_canon_rename_is_faithful;
          canon_invariance_prop;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "counters and LRU" `Quick
            test_cache_counters_and_lru;
          Alcotest.test_case "racing insert keeps first" `Quick
            test_cache_racing_insert_keeps_first;
          Alcotest.test_case "key injectivity" `Quick
            test_cache_key_injective_on_templates;
          Alcotest.test_case "save/load roundtrip" `Quick
            test_cache_save_load_roundtrip;
          Alcotest.test_case "load rejects corrupt" `Quick
            test_cache_load_rejects_corrupt;
          Alcotest.test_case "load rejects a bit flip" `Quick
            test_cache_load_rejects_bit_flip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "answers match direct run" `Quick
            test_engine_answers_match_direct_run;
          Alcotest.test_case "boolean and truncation" `Quick
            test_engine_boolean_and_truncation;
          Alcotest.test_case "cache hits are tuple-identical" `Quick
            test_engine_cache_hits_are_tuple_identical;
          engine_cache_identity_prop;
          Alcotest.test_case "typed failures and containment" `Quick
            test_engine_typed_failures;
          Alcotest.test_case "pagination serves exactly once" `Quick
            test_engine_pagination_exactly_once;
          Alcotest.test_case "cursor tokens are single-use" `Quick
            test_engine_cursor_tokens_single_use;
          Alcotest.test_case "cursor tokens are unguessable" `Quick
            test_engine_cursor_tokens_unguessable;
          Alcotest.test_case "streaming metrics are honest" `Quick
            test_engine_streaming_metrics_honest;
          Alcotest.test_case "large answer caps" `Quick
            test_engine_large_answer_caps;
          Alcotest.test_case "cursor eviction is typed" `Quick
            test_engine_cursor_eviction_is_typed;
          Alcotest.test_case "deadline sheds typed" `Quick
            test_engine_deadline_sheds_typed;
          Alcotest.test_case "admission control" `Quick
            test_engine_admission_control;
          Alcotest.test_case "batching fans out" `Quick
            test_engine_batching_fans_out;
          engine_batch_identity_prop;
          Alcotest.test_case "batch leader abort fans out" `Quick
            test_engine_batch_leader_abort_fans_out;
          Alcotest.test_case "cost shed is typed" `Quick
            test_engine_cost_shed_is_typed;
          Alcotest.test_case "cost estimate exact on single edge" `Quick
            test_engine_cost_estimate_is_exact_on_single_edge;
          Alcotest.test_case "backlog cost shed" `Quick
            test_engine_backlog_cost_shed;
          Alcotest.test_case "client quota sheds only the flooder" `Quick
            test_engine_client_quota_sheds_only_flooder;
          Alcotest.test_case "cache persists across restart" `Quick
            test_engine_cache_persists_across_restart;
          Alcotest.test_case "per-client fairness" `Quick
            test_engine_per_client_fairness;
          Alcotest.test_case "drain and shutdown" `Quick
            test_engine_drain_and_shutdown;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "deep nesting rejected" `Quick
            test_server_rejects_deep_nesting;
          Alcotest.test_case "long line rejected" `Quick
            test_server_rejects_long_line;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "unix socket and drain" `Quick
            test_server_unix_socket_and_drain;
        ] );
    ]
