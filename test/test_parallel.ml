(* Tests for the domain pool that fans independent work (experiment
   sweep cells, seeds) out over domains, and for telemetry shared
   across domains.

   PPR_JOBS sets the pool width (default 4); CI runs the suite at 1 and
   at 4, so every test here is checked both with a degenerate
   single-domain pool (which executes inline) and a real one. *)

open Helpers
module Pool = Parallel.Pool

let jobs =
  match Sys.getenv_opt "PPR_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

(* One pool for the whole file. *)
let pool = Pool.create ~num_domains:jobs ~grain:1 ()

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

exception Boom of int

let test_pool_size () =
  check_int "size" jobs (Pool.size pool);
  check_int "grain" 1 (Pool.grain pool);
  check_int "default grain" 16384 (Pool.grain (Pool.create ~num_domains:1 ()))

let test_pool_empty () =
  Alcotest.(check (list int)) "no tasks" [] (Pool.run pool [])

let test_pool_many_tasks () =
  let n = 10_000 in
  let results = Pool.run pool (List.init n (fun i () -> i * i)) in
  check_int "all ran" n (List.length results);
  Alcotest.(check (list int))
    "in submission order"
    (List.init n (fun i -> i * i))
    results

let test_pool_map () =
  Alcotest.(check (list int)) "map keeps order" [ 2; 4; 6; 8 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3; 4 ])

let test_pool_exception () =
  Alcotest.check_raises "task error propagates" (Boom 3) (fun () ->
      ignore
        (Pool.run pool
           (List.init 8 (fun i () -> if i >= 3 then raise (Boom i) else i))))

let test_pool_first_failure_wins () =
  (* Several tasks fail; the one with the lowest index is re-raised, so
     the error a caller sees is deterministic. *)
  Alcotest.check_raises "lowest index re-raised" (Boom 2) (fun () ->
      ignore
        (Pool.run pool
           (List.init 8 (fun i () ->
                if i = 5 || i = 2 || i = 7 then raise (Boom i) else i))))

let test_pool_reuse_after_failure () =
  (try ignore (Pool.run pool [ (fun () -> raise (Boom 0)) ])
   with Boom _ -> ());
  Alcotest.(check (list int)) "pool survives a failed batch" [ 1; 2; 3 ]
    (Pool.run pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ])

let test_pool_nested_run () =
  (* A task that re-enters the pool must not deadlock; nested batches run
     inline on the worker. *)
  let nested =
    Pool.run pool
      (List.init 4 (fun i () ->
           List.fold_left ( + ) 0
             (Pool.run pool (List.init 3 (fun j () -> (10 * i) + j)))))
  in
  Alcotest.(check (list int)) "nested totals" [ 3; 33; 63; 93 ] nested

let test_pool_shutdown () =
  let p = Pool.create ~num_domains:jobs () in
  Alcotest.(check (list int)) "works before" [ 7 ] (Pool.run p [ (fun () -> 7) ]);
  Pool.shutdown p;
  Pool.shutdown p;
  (* After shutdown the pool degrades to inline execution. *)
  Alcotest.(check (list int)) "inline after shutdown" [ 8 ]
    (Pool.run p [ (fun () -> 8) ])

let test_pool_not_worker_outside () =
  check_bool "submitter is not a worker" false (Pool.current_is_worker ());
  let inside = Pool.run pool (List.init 4 (fun _ () -> Pool.current_is_worker ())) in
  check_bool "tasks run as workers" true (List.for_all Fun.id inside)

(* ------------------------------------------------------------------ *)
(* Telemetry under domains                                             *)

let test_metrics_cross_domain () =
  let registry = Telemetry.Metrics.create () in
  let hits = Telemetry.Metrics.counter registry "hits" in
  let peak = Telemetry.Metrics.max_gauge registry "peak" in
  ignore
    (Pool.run pool
       (List.init 8 (fun i () ->
            for j = 1 to 1_000 do
              Telemetry.Metrics.incr hits;
              Telemetry.Metrics.observe_max peak ((i * 1_000) + j)
            done)));
  check_int "no lost increments" 8_000 (Telemetry.Metrics.value hits);
  check_int "gauge saw the max" 8_000 (Telemetry.Metrics.peak peak)

let test_span_tid () =
  let sink, spans = Telemetry.Sink.memory () in
  let t = Telemetry.create sink in
  Telemetry.with_span t "root" (fun _ -> ());
  Telemetry.close t;
  match spans () with
  | [ span ] ->
    check_int "span carries the emitting domain" (Domain.self () :> int)
      (Telemetry.Span.tid span)
  | other ->
    Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length other))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    ([
       ( "pool",
         [
           Alcotest.test_case "size and grain" `Quick test_pool_size;
           Alcotest.test_case "empty batch" `Quick test_pool_empty;
           Alcotest.test_case "10k tasks" `Quick test_pool_many_tasks;
           Alcotest.test_case "map order" `Quick test_pool_map;
           Alcotest.test_case "exception propagates" `Quick test_pool_exception;
           Alcotest.test_case "first failure wins" `Quick
             test_pool_first_failure_wins;
           Alcotest.test_case "reuse after failure" `Quick
             test_pool_reuse_after_failure;
           Alcotest.test_case "nested run" `Quick test_pool_nested_run;
           Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
           Alcotest.test_case "worker flag" `Quick test_pool_not_worker_outside;
         ] );
       ( "telemetry",
         [
           Alcotest.test_case "atomic metrics across domains" `Quick
             test_metrics_cross_domain;
           Alcotest.test_case "span tid" `Quick test_span_tid;
         ] );
     ]
    : unit Alcotest.test list)
