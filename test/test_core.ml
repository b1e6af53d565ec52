(* Tests for the evaluation strategies: plans, the executor, the cost
   model, all five of the paper's methods, mini-buckets, and the paper's
   Theorem 2 (induced width = treewidth). *)

open Helpers
module Cq = Conjunctive.Cq
module Encode = Conjunctive.Encode
module Plan = Ppr_core.Plan
module Exec = Ppr_core.Exec
module Cost = Ppr_core.Cost
module Naive = Ppr_core.Naive
module Driver = Ppr_core.Driver
module Bucket = Ppr_core.Bucket
module Relation = Relalg.Relation
module G = Graphlib.Graph

let edge u v = { Cq.rel = "edge"; vars = [ u; v ] }
let pentagon_cq = coloring_query Graphlib.Generators.pentagon

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)

let test_plan_schema () =
  let p = Plan.Join (Plan.Atom (edge 0 1), Plan.Atom (edge 1 2)) in
  Alcotest.(check (list int)) "join schema" [ 0; 1; 2 ] (Plan.schema p);
  let projected = Plan.Project (p, [ 2; 0 ]) in
  Alcotest.(check (list int)) "projection schema" [ 0; 2 ] (Plan.schema projected);
  Alcotest.check_raises "projecting absent var"
    (Invalid_argument "Plan: projection keeps v9, absent from input") (fun () ->
      ignore (Plan.schema (Plan.Project (p, [ 9 ]))))

let test_plan_width_counts () =
  let p =
    Plan.Project
      (Plan.Join (Plan.Atom (edge 0 1), Plan.Atom (edge 1 2)), [ 0; 2 ])
  in
  check_int "width" 3 (Plan.width p);
  check_int "joins" 1 (Plan.join_count p);
  check_int "projections" 1 (Plan.projection_count p);
  check_int "nodes" 4 (Plan.node_count p)

let test_plan_helpers () =
  let atoms = [ Plan.Atom (edge 0 1); Plan.Atom (edge 1 2); Plan.Atom (edge 2 0) ] in
  let chain = Plan.left_deep atoms in
  check_int "left-deep joins" 2 (Plan.join_count chain);
  check_int "atoms in order" 3 (List.length (Plan.atoms chain));
  let identity = Plan.project_to chain [ 0; 1; 2 ] in
  check_int "identity projection skipped" 0 (Plan.projection_count identity);
  Alcotest.check_raises "empty left_deep"
    (Invalid_argument "Plan.left_deep: empty") (fun () ->
      ignore (Plan.left_deep []))

let test_answers_query () =
  let cq = Cq.make ~atoms:[ edge 0 1; edge 1 2 ] ~free:[ 0 ] in
  let good =
    Plan.Project (Plan.Join (Plan.Atom (edge 1 2), Plan.Atom (edge 0 1)), [ 0 ])
  in
  check_bool "order-insensitive atom match" true (Plan.answers_query cq good);
  let missing = Plan.Project (Plan.Atom (edge 0 1), [ 0 ]) in
  check_bool "missing atom detected" false (Plan.answers_query cq missing);
  let wrong_schema = Plan.Join (Plan.Atom (edge 0 1), Plan.Atom (edge 1 2)) in
  check_bool "wrong target schema detected" false
    (Plan.answers_query cq wrong_schema)

(* ------------------------------------------------------------------ *)
(* Exec                                                                *)

let test_exec_boolean_result () =
  (* Triangle is 3-colorable: the 0-ary result holds the empty tuple. *)
  let cq = coloring_query (Graphlib.Generators.cycle 3) in
  let result = Exec.run coloring_db (Bucket.compile cq) in
  check_int "0-ary relation" 0 (Relation.arity result);
  check_int "one (empty) tuple" 1 (Relation.cardinality result);
  (* K4 is not 3-colorable. *)
  let cq4 = coloring_query (Graphlib.Generators.clique 4) in
  check_bool "K4 empty" false (Exec.nonempty coloring_db (Bucket.compile cq4))

let test_exec_stats_measure_width () =
  let stats = Relalg.Stats.create () in
  let plan = Ppr_core.Straightforward.compile pentagon_cq in
  ignore (Exec.run ~ctx:(Relalg.Ctx.create ~stats ()) coloring_db plan);
  (* The straightforward pentagon plan reaches all 5 variables. *)
  check_int "measured arity = plan width" (Plan.width plan)
    (Relalg.Stats.max_arity stats)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

let test_cost_environment () =
  let cq = pentagon_cq in
  let env = Cost.environment coloring_db cq in
  Alcotest.(check (float 1e-9)) "edge cardinality" 6.0
    (Cost.atom_cardinality env (edge 0 1));
  Alcotest.(check (float 1e-9)) "domain size" 3.0 (Cost.domain_size env 0);
  (* A variable the environment never saw must not look free: it
     defaults to the largest observed domain (3 here), not 1.0 — a
     1.0 default made every join over an unseen variable estimate as a
     key-key join and systematically underestimate. *)
  Alcotest.(check (float 1e-9)) "unseen var" 3.0 (Cost.domain_size env 99)

let test_cost_estimates () =
  let env = Cost.environment coloring_db pentagon_cq in
  (* edge(0,1) |><| edge(1,2): 6*6/3 = 12 expected tuples. *)
  let join = Plan.Join (Plan.Atom (edge 0 1), Plan.Atom (edge 1 2)) in
  Alcotest.(check (float 1e-9)) "join estimate" 12.0 (Cost.estimate env join);
  Alcotest.(check (float 1e-9)) "plan cost = intermediates" 12.0
    (Cost.plan_cost env join);
  (* Projection estimates are capped by the domain product. *)
  let proj = Plan.Project (join, [ 1 ]) in
  Alcotest.(check (float 1e-9)) "projection cap" 3.0 (Cost.estimate env proj)

let test_order_cost_matches_plan_cost () =
  let atoms = Array.of_list pentagon_cq.Cq.atoms in
  let env = Cost.environment coloring_db pentagon_cq in
  let perm = [| 0; 1; 2; 3; 4 |] in
  let plan =
    Plan.left_deep (List.map (fun i -> Plan.Atom atoms.(i)) (Array.to_list perm))
  in
  Alcotest.(check (float 1e-6)) "incremental = full"
    (Cost.plan_cost env plan)
    (Cost.order_cost env atoms perm)

(* ------------------------------------------------------------------ *)
(* Naive planner                                                       *)

let test_dp_beats_bad_orders () =
  (* On a path query the DP order should keep cost at the minimum:
     joining adjacent atoms, never a cartesian blowup. *)
  let cq = coloring_query (Graphlib.Generators.path 6) in
  let atoms = Array.of_list cq.Cq.atoms in
  let env = Cost.environment coloring_db cq in
  let dp = Naive.dp_order env atoms in
  let dp_cost = Cost.order_cost env atoms dp in
  (* Compare against the worst of a few random permutations. *)
  let rng = rng 1 in
  let worst = ref dp_cost in
  for _ = 1 to 20 do
    let p = Array.init (Array.length atoms) Fun.id in
    Graphlib.Rng.shuffle rng p;
    worst := max !worst (Cost.order_cost env atoms p)
  done;
  check_bool "dp no worse than random" true (dp_cost <= !worst);
  check_bool "dp is a permutation" true
    (List.sort compare (Array.to_list dp)
    = List.init (Array.length atoms) Fun.id)

let test_genetic_order_valid () =
  let cq = coloring_query (random_graph ~seed:2 ~n:12 ~m:30) in
  let atoms = Array.of_list cq.Cq.atoms in
  let env = Cost.environment coloring_db cq in
  let params = { Naive.default_genetic with pool_size = Some 64; generations = Some 200 } in
  let order = Naive.genetic_order params env atoms in
  check_bool "permutation" true
    (List.sort compare (Array.to_list order) = List.init 30 Fun.id)

let test_genetic_improves_over_median_random () =
  let cq = coloring_query (random_graph ~seed:5 ~n:14 ~m:28) in
  let atoms = Array.of_list cq.Cq.atoms in
  let env = Cost.environment coloring_db cq in
  let params = { Naive.default_genetic with pool_size = Some 128; generations = Some 500 } in
  let best = Cost.order_cost env atoms (Naive.genetic_order params env atoms) in
  let rng = rng 9 in
  let random_costs =
    List.init 21 (fun _ ->
        let p = Array.init (Array.length atoms) Fun.id in
        Graphlib.Rng.shuffle rng p;
        Cost.order_cost env atoms p)
  in
  let median_random = List.nth (List.sort compare random_costs) 10 in
  check_bool "genetic <= median random" true (best <= median_random)

let prop_bushy_never_beats_nothing =
  qtest ~count:40 "bushy DP cost <= left-deep DP cost" tiny_graph_arbitrary
    (fun g ->
      let cq = coloring_query g in
      Cq.atom_count cq > 15
      ||
      let atoms = Array.of_list cq.Cq.atoms in
      let env = Cost.environment coloring_db cq in
      let bushy = Naive.dp_bushy_plan env atoms in
      let left_deep_cost = Cost.order_cost env atoms (Naive.dp_order env atoms) in
      Cost.plan_cost env bushy <= left_deep_cost +. 1e-6)

let prop_bushy_correct =
  qtest ~count:40 "bushy plans compute the right answer" tiny_graph_arbitrary
    (fun g ->
      let cq = coloring_query g in
      Cq.atom_count cq > 15
      ||
      let plan = Naive.compile ~search:Naive.Dp_bushy coloring_db cq in
      Plan.answers_query cq plan
      && Exec.nonempty coloring_db plan = brute_force_colorable g)

let test_bushy_rejects_large () =
  let cq = coloring_query (random_graph ~seed:1 ~n:10 ~m:20) in
  let env = Cost.environment coloring_db cq in
  Alcotest.check_raises "cap"
    (Invalid_argument "Naive.dp_bushy_plan: too many atoms for bushy DP")
    (fun () ->
      ignore (Naive.dp_bushy_plan env (Array.of_list cq.Cq.atoms)))

let test_naive_compile_structure () =
  let plan = Naive.compile coloring_db pentagon_cq in
  check_bool "answers the query" true (Plan.answers_query pentagon_cq plan);
  (* No projection pushing: at most the final projection. *)
  check_bool "no pushed projections" true (Plan.projection_count plan <= 1)

(* ------------------------------------------------------------------ *)
(* The five methods agree                                              *)

let all_methods =
  [
    Driver.Naive (Naive.Auto (8, Naive.{ default_genetic with pool_size = Some 64; generations = Some 100 }));
    Driver.Straightforward;
    Driver.Early_projection;
    Driver.Reorder;
    Driver.Bucket_elimination;
  ]

let prop_methods_agree_boolean =
  qtest ~count:50 "all methods agree with the oracle (Boolean)"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let expected = brute_force_colorable g in
      List.for_all
        (fun meth ->
          let plan = Driver.compile ~rng:(rng 3) meth coloring_db cq in
          Plan.answers_query cq plan
          && Exec.nonempty coloring_db plan = expected)
        all_methods)

let prop_methods_agree_non_boolean =
  qtest ~count:40 "all methods compute identical answers (free vars)"
    graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.order g) g in
      let reference =
        Exec.run coloring_db (Driver.compile Driver.Bucket_elimination coloring_db cq)
      in
      List.for_all
        (fun meth ->
          let plan = Driver.compile ~rng:(rng 3) meth coloring_db cq in
          Relation.equal_modulo_order reference (Exec.run coloring_db plan))
        all_methods)

let prop_non_boolean_matches_oracle =
  qtest ~count:40 "free-variable answers match the coloring oracle"
    graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.size g) g in
      match cq.Cq.free with
      | [] -> true
      | keep ->
        let result =
          Exec.run coloring_db (Driver.compile Driver.Bucket_elimination coloring_db cq)
        in
        let got =
          List.sort compare
            (List.map
               (fun tup ->
                 List.map
                   (fun v ->
                     Relalg.Tuple.get tup
                       (Relalg.Schema.index (Relation.schema result) v))
                   keep)
               (Relation.to_list result))
        in
        got = all_colorings g ~keep)

(* Every method under its own routing, then GHD under each forced gate
   route, each checked against {!Helpers.brute_force_cq} on random
   multi-relation queries (mixed arities, repeated variables, an empty
   relation, Boolean heads): materialized through [Driver.run], drained
   through [Exec.stream], and paged through [Driver.run ~limit] with
   and without [~rank]. *)
let oracle_routes =
  List.map
    (fun m -> (Driver.method_name m, m, None))
    Driver.
      [
        Straightforward; Early_projection; Reorder; Bucket_elimination;
        Naive Naive.default_search; Hybrid; Wcoj; Ghd;
      ]
  @ List.map
      (fun (route, decision) ->
        ("ghd forced " ^ route, Driver.Ghd, Some (route, decision)))
      [ ("bucket", Ghd.Bucket); ("generic", Ghd.Generic); ("ghd", Ghd.Ghd) ]

(* The page size of the limited and ranked oracle runs. *)
let oracle_page = 2

(* What one route answers on [cq]. [limited] is the page of
   [Driver.run ~limit] with its [complete] flag; [ranked] is the page of
   [Driver.run ~rank ~limit] under the oracle's own order (rows in head
   order, lexicographic). *)
type route_answers = {
  materialized : int list list option;
  drained : int list list;
  limited : (int list list * bool) option;
  ranked : int list list option;
  routed : bool;  (** a forced gate route is the one the artifact took *)
}

let route_answers (_, meth, forced) db cq =
  let run () =
    let outcome = Driver.run ~rng:(rng 1) meth db cq in
    let compiled = Driver.prepare ~rng:(rng 1) meth db cq in
    let drained = Relalg.Cursor.to_relation (Exec.stream db cq compiled) in
    let routed =
      match (forced, compiled) with
      | None, _ -> true
      | Some (_, d), Driver.Decomposed (prep, _) -> prep.Ghd.decision = d
      | Some _, _ -> false
    in
    let answers rel = rows_in_order cq.Cq.free rel in
    let limited =
      Driver.run ~rng:(rng 1) ~limit:oracle_page meth db cq
    in
    (* Rank by the head-order row, the oracle's sort key; the stream's
       column order is read off the limited page's schema, which comes
       from the same streamed path. *)
    let rank =
      let schema =
        Relation.schema
          (Option.value limited.Driver.result ~default:drained)
      in
      let cols = List.map (Relalg.Schema.index schema) cq.Cq.free in
      let key t = List.map (Relalg.Tuple.get t) cols in
      fun a b ->
        match compare (key a) (key b) with
        | 0 -> Relalg.Tuple.compare a b
        | c -> c
    in
    let ranked =
      Driver.run ~rng:(rng 1) ~rank ~limit:oracle_page meth db cq
    in
    {
      materialized = Option.map answers outcome.Driver.result;
      drained = answers drained;
      limited =
        Option.map
          (fun rel -> (answers rel, limited.Driver.complete))
          limited.Driver.result;
      ranked = Option.map answers ranked.Driver.result;
      routed;
    }
  in
  match forced with None -> run () | Some (route, _) -> with_gate route run

(* The limited page holds [min k |oracle|] distinct oracle rows and is
   complete iff the oracle has at most [k] rows; the ranked page is the
   oracle's first [k] rows. *)
let limited_ok expected (page, complete) =
  let n = List.length expected in
  List.length page = min oracle_page n
  && List.for_all (fun row -> List.mem row expected) page
  && complete = (n <= oracle_page)

let ranked_expected expected =
  List.filteri (fun i _ -> i < oracle_page) expected

let prop_every_route_matches_oracle =
  qtest ~count:150 "every method and forced route = brute force (random CQs)"
    oracle_arbitrary (fun (cq, data) ->
      let db = oracle_db data in
      let expected = brute_force_cq db cq in
      List.for_all
        (fun ((name, _, _) as route) ->
          let r = route_answers route db cq in
          (r.routed
          && r.materialized = Some expected
          && r.drained = expected
          && Option.fold ~none:false ~some:(limited_ok expected) r.limited
          && r.ranked = Some (ranked_expected expected))
          || QCheck.Test.fail_reportf "%s disagrees with the oracle" name)
        oracle_routes)

(* Fixed instances for the same check, one case per route and instance,
   so a regression names the shape it breaks: cycles of each length,
   acyclic paths and stars, repeated variables, a self-loop, an empty
   relation, disconnected components, a duplicated atom, a head in
   non-sorted order, and Boolean heads over cyclic and acyclic bodies. *)
let oracle_fixed_data =
  ( [ [ 0 ]; [ 2 ] ],
    [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ]; [ 1; 1 ]; [ 0; 2 ] ],
    [ [ 1; 0 ]; [ 2; 1 ]; [ 0; 0 ]; [ 2; 2 ] ],
    [ [ 0; 0; 1 ]; [ 0; 1; 2 ]; [ 1; 1; 0 ]; [ 2; 0; 2 ] ] )

let oracle_instances =
  let a rel vars = { Cq.rel; vars } in
  [
    ("triangle, Boolean", [ a "r" [ 0; 1 ]; a "r" [ 1; 2 ]; a "r" [ 2; 0 ] ], []);
    ("triangle, all free",
      [ a "r" [ 0; 1 ]; a "r" [ 1; 2 ]; a "r" [ 2; 0 ] ], [ 0; 1; 2 ]);
    ("4-cycle over r and s",
      [ a "r" [ 0; 1 ]; a "s" [ 1; 2 ]; a "r" [ 2; 3 ]; a "s" [ 3; 0 ] ], [ 0 ]);
    ("5-cycle",
      [ a "r" [ 0; 1 ]; a "s" [ 1; 2 ]; a "r" [ 2; 3 ]; a "s" [ 3; 4 ];
        a "r" [ 4; 0 ] ], [ 0; 2 ]);
    ("path", [ a "r" [ 0; 1 ]; a "s" [ 1; 2 ]; a "r" [ 2; 3 ] ], [ 0; 3 ]);
    ("star around a ternary atom",
      [ a "t" [ 0; 1; 2 ]; a "r" [ 0; 3 ]; a "s" [ 1; 4 ]; a "u" [ 2 ] ],
      [ 3; 4 ]);
    ("repeated variables", [ a "t" [ 0; 0; 1 ]; a "r" [ 1; 1 ] ], [ 0; 1 ]);
    ("self-loop, Boolean", [ a "r" [ 0; 0 ] ], []);
    ("empty relation", [ a "r" [ 0; 1 ]; a "e" [ 1; 2 ] ], [ 0 ]);
    ("disconnected components", [ a "r" [ 0; 1 ]; a "s" [ 2; 3 ] ], [ 0; 3 ]);
    ("head out of column order", [ a "t" [ 0; 1; 2 ] ], [ 2; 0 ]);
    ("parallel and duplicate atoms",
      [ a "r" [ 0; 1 ]; a "s" [ 1; 0 ]; a "r" [ 0; 1 ] ], [ 0; 1 ]);
    ("unary filters", [ a "u" [ 0 ]; a "r" [ 0; 1 ]; a "u" [ 1 ] ], [ 1 ]);
    ("ternary cycle, Boolean",
      [ a "t" [ 0; 1; 2 ]; a "t" [ 2; 3; 4 ]; a "r" [ 4; 0 ] ], []);
  ]

let oracle_route_suites =
  let db = oracle_db oracle_fixed_data in
  let rows = Alcotest.(list (list int)) in
  List.map
    (fun ((route_name, _, _) as route) ->
      ( "oracle: " ^ route_name,
        List.map
          (fun (name, atoms, free) ->
            Alcotest.test_case name `Quick (fun () ->
                let cq = Cq.make ~atoms ~free in
                let expected = brute_force_cq db cq in
                let r = route_answers route db cq in
                check_bool "took the forced route" true r.routed;
                Alcotest.(check (option rows))
                  "materialized" (Some expected) r.materialized;
                Alcotest.check rows "drained stream" expected r.drained;
                check_bool
                  (Printf.sprintf "limit %d page" oracle_page)
                  true
                  (Option.fold ~none:false ~some:(limited_ok expected)
                     r.limited);
                Alcotest.(check (option rows))
                  (Printf.sprintf "rank + limit %d page" oracle_page)
                  (Some (ranked_expected expected))
                  r.ranked))
          oracle_instances ))
    oracle_routes

let prop_methods_widths_ordered =
  qtest ~count:50 "bucket elimination is never wider than straightforward"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      Plan.width (Driver.compile Driver.Bucket_elimination coloring_db cq)
      <= Plan.width (Driver.compile Driver.Straightforward coloring_db cq))

(* ------------------------------------------------------------------ *)
(* Early projection & reordering specifics                             *)

let test_live_after () =
  let cq = Cq.make ~atoms:[ edge 0 1; edge 1 2; edge 2 3 ] ~free:[ 3 ] in
  Alcotest.(check (list int)) "after atom 0" [ 1 ]
    (Ppr_core.Early_projection.live_after cq 0);
  Alcotest.(check (list int)) "after atom 1" [ 2 ]
    (Ppr_core.Early_projection.live_after cq 1);
  Alcotest.(check (list int)) "after last atom, free survives" [ 3 ]
    (Ppr_core.Early_projection.live_after cq 2)

let test_early_projection_on_path () =
  (* On a path listed in order, early projection keeps width 3: the new
     edge's two vars plus the chain variable. *)
  let cq = coloring_query (Graphlib.Generators.path 8) in
  let plan = Ppr_core.Early_projection.compile cq in
  check_bool "narrow plan" true (Plan.width plan <= 3);
  check_bool "straightforward is wide" true
    (Plan.width (Ppr_core.Straightforward.compile cq) = 9)

let test_reorder_permutation_greedy () =
  (* A variable occurring once should attract the greedy choice: the
     dangling edge (4,5) has two unique vars (4 occurs also in e1... build
     a shape where one atom has 2 unique vars). *)
  let cq =
    Cq.make
      ~atoms:[ edge 0 1; edge 1 2; edge 8 9 ]
      ~free:[]
  in
  let perm = Ppr_core.Reorder.permutation cq in
  (* edge(8,9) has two variables occurring nowhere else: picked first. *)
  check_int "most-unique atom first" 2 perm.(0)

let test_reorder_deterministic_without_rng () =
  let cq = coloring_query (random_graph ~seed:3 ~n:8 ~m:16) in
  let a = Ppr_core.Reorder.permutation cq in
  let b = Ppr_core.Reorder.permutation cq in
  Alcotest.(check (array int)) "deterministic" a b

(* ------------------------------------------------------------------ *)
(* Bucket elimination and Theorem 2                                    *)

let test_bucket_order_rejects_non_permutation () =
  Alcotest.check_raises "bad order"
    (Invalid_argument "Bucket: order is not a permutation of the query variables")
    (fun () -> ignore (Bucket.compile ~order:[| 0; 0 |] pentagon_cq))

let test_bucket_pentagon_width () =
  (* tw(C5) = 2: bucket elimination along a good order keeps plan width
     3 and induced width 2. *)
  let order = Bucket.variable_order pentagon_cq in
  check_int "induced width" 2 (Bucket.induced_width pentagon_cq order);
  check_int "plan width" 3 (Plan.width (Bucket.compile ~order pentagon_cq))

let prop_theorem2 =
  qtest ~count:30 "Theorem 2: optimal induced width = treewidth"
    (QCheck.map
       (fun (n, m, seed) ->
         let m = max 1 (min m (n * (n - 1) / 2)) in
         random_graph ~seed ~n ~m)
       QCheck.(triple (int_range 2 6) (int_range 1 12) (int_range 0 1000)))
    (fun g ->
      let cq = coloring_query g in
      let jg = Conjunctive.Joingraph.build cq in
      match Graphlib.Treewidth.exact jg.Conjunctive.Joingraph.graph with
      | None -> true
      | Some tw -> Bucket.optimal_induced_width cq = tw)

let prop_mcs_induced_width_at_least_treewidth =
  qtest ~count:50 "MCS induced width >= treewidth" tiny_graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let jg = Conjunctive.Joingraph.build cq in
      match Graphlib.Treewidth.exact jg.Conjunctive.Joingraph.graph with
      | None -> true
      | Some tw ->
        Bucket.induced_width cq (Bucket.variable_order cq) >= tw)

let prop_bucket_plan_width_is_induced_width_plus_one =
  qtest ~count:50 "plan width <= induced width + 1 (Boolean)" graph_arbitrary
    (fun g ->
      let cq = coloring_query g in
      let order = Bucket.variable_order cq in
      Plan.width (Bucket.compile ~order cq)
      <= Bucket.induced_width cq order + 1)

(* ------------------------------------------------------------------ *)
(* Mini-buckets                                                        *)

let test_minibucket_validation () =
  Alcotest.check_raises "i_bound < 1"
    (Invalid_argument "Minibucket.compile: i_bound < 1") (fun () ->
      ignore (Ppr_core.Minibucket.compile ~i_bound:0 pentagon_cq))

let test_minibucket_width_capped () =
  let g = random_graph ~seed:8 ~n:12 ~m:30 in
  let cq = coloring_query g in
  let plan = Ppr_core.Minibucket.compile ~i_bound:3 cq in
  check_bool "plan width bounded by i_bound + 1" true (Plan.width plan <= 4)

let prop_minibucket_sound_on_empty =
  qtest ~count:60 "Definitely_empty implies truly uncolorable" graph_arbitrary
    (fun g ->
      let cq = coloring_query g in
      List.for_all
        (fun i_bound ->
          match Ppr_core.Minibucket.evaluate ~i_bound coloring_db cq with
          | Ppr_core.Minibucket.Definitely_empty -> not (brute_force_colorable g)
          | Ppr_core.Minibucket.Maybe_nonempty _ -> true)
        [ 1; 2; 3; 5 ])

let prop_minibucket_exact_at_high_bound =
  qtest ~count:40 "mini-buckets converge to exact at high i-bound"
    tiny_graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let verdict =
        Ppr_core.Minibucket.evaluate ~i_bound:(Cq.var_count cq) coloring_db cq
      in
      match verdict with
      | Ppr_core.Minibucket.Definitely_empty -> not (brute_force_colorable g)
      | Ppr_core.Minibucket.Maybe_nonempty _ -> brute_force_colorable g)

(* ------------------------------------------------------------------ *)
(* Hybrid planner                                                      *)

let test_hybrid_candidates_sorted () =
  let cands = Ppr_core.Hybrid.candidates coloring_db pentagon_cq in
  check_bool "non-empty portfolio" true (List.length cands >= 5);
  let costs = List.map (fun c -> c.Ppr_core.Hybrid.estimated_cost) cands in
  check_bool "sorted ascending" true (List.sort compare costs = costs);
  List.iter
    (fun c ->
      check_bool
        (c.Ppr_core.Hybrid.label ^ " answers the query")
        true
        (Plan.answers_query pentagon_cq c.Ppr_core.Hybrid.plan))
    cands

let prop_hybrid_agrees =
  qtest ~count:40 "hybrid computes the same answers" graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.order g) g in
      Relation.equal_modulo_order
        (Exec.run coloring_db (Ppr_core.Hybrid.compile coloring_db cq))
        (Exec.run coloring_db (Bucket.compile cq)))

let prop_hybrid_no_wider_than_mcs_bucket =
  qtest ~count:40 "hybrid cost <= plain bucket elimination's"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let env = Cost.environment coloring_db cq in
      Cost.plan_cost env (Ppr_core.Hybrid.compile coloring_db cq)
      <= Cost.plan_cost env (Bucket.compile cq) +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Semijoin reduction                                                  *)

let prop_semijoin_useless_on_coloring =
  (* The paper's Section 2 claim, verified: projecting a column of the
     edge relation yields all colors, so the Wong-Youssefi pass never
     deletes a tuple on coloring queries. *)
  qtest ~count:50 "semijoin reduction removes nothing on 3-COLOR"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      Ppr_core.Semijoin_pass.tuples_removed coloring_db cq = 0)

let test_semijoin_helps_on_selective_instance () =
  (* A chain with a selective unary relation at one end: reduction
     propagates the restriction through the chain. *)
  let db = Conjunctive.Database.create () in
  Conjunctive.Database.add db "succ"
    (relation [ 0; 1 ] (List.init 9 (fun i -> [ i; i + 1 ])));
  Conjunctive.Database.add db "is_nine" (relation [ 0 ] [ [ 9 ] ]);
  let cq =
    Cq.make
      ~atoms:
        [
          { Cq.rel = "succ"; vars = [ 0; 1 ] };
          { Cq.rel = "succ"; vars = [ 1; 2 ] };
          { Cq.rel = "is_nine"; vars = [ 2 ] };
        ]
      ~free:[ 0 ]
  in
  check_bool "removes tuples" true
    (Ppr_core.Semijoin_pass.tuples_removed db cq > 0);
  let reduced_db, reduced_cq, changed =
    Ppr_core.Semijoin_pass.reduced_instance db cq
  in
  check_bool "reports change" true changed;
  (* Answer preserved: only x=7 reaches 9 in two steps. *)
  let result = Exec.run reduced_db (Bucket.compile reduced_cq) in
  check_int "single answer" 1 (Relation.cardinality result);
  check_bool "x = 7" true (Relation.mem result (Relalg.Tuple.of_list [ 7 ]))

let prop_semijoin_preserves_answers =
  qtest ~count:40 "reduced instance computes the same answer"
    graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.size g) g in
      let reduced_db, reduced_cq, _ =
        Ppr_core.Semijoin_pass.reduced_instance coloring_db cq
      in
      Relation.equal_modulo_order
        (Exec.run coloring_db (Bucket.compile cq))
        (Exec.run reduced_db (Bucket.compile reduced_cq)))

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)

let test_explain_pentagon () =
  let plan = Bucket.compile pentagon_cq in
  let node, result = Ppr_core.Explain.analyze coloring_db plan in
  check_int "result matches direct execution"
    (Relation.cardinality (Exec.run coloring_db plan))
    (Relation.cardinality result);
  check_int "root rows" (Relation.cardinality result)
    node.Ppr_core.Explain.actual_rows;
  let rendered = Ppr_core.Explain.render node in
  check_bool "mentions a scan" true
    (let rec contains i =
       i + 9 <= String.length rendered
       && (String.sub rendered i 9 = "scan edge" || contains (i + 1))
     in
     contains 0);
  (* The independence model is exact on the symmetric edge relation. *)
  Alcotest.(check (option (pair string (float 0.1)))) "no misestimate" None
    (Option.map
       (fun (n, r) -> (n.Ppr_core.Explain.description, r))
       (Ppr_core.Explain.largest_misestimate node))

let prop_explain_tree_mirrors_plan =
  qtest ~count:30 "explain produces one node per plan operator"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let plan = Bucket.compile cq in
      let node, _ = Ppr_core.Explain.analyze coloring_db plan in
      let rec count n =
        1 + List.fold_left (fun acc c -> acc + count c) 0 n.Ppr_core.Explain.children
      in
      count node = Plan.node_count plan)

let test_explain_detects_misestimates () =
  (* A skewed relation breaks independence: join of two copies of a
     relation concentrated on one value. *)
  let db = Conjunctive.Database.create () in
  Conjunctive.Database.add db "skew"
    (relation [ 0; 1 ] ([ [ 1; 1 ]; [ 2; 1 ]; [ 3; 1 ]; [ 4; 1 ] ] @ [ [ 5; 2 ] ]));
  let cq =
    Cq.make
      ~atoms:[ { Cq.rel = "skew"; vars = [ 0; 1 ] }; { Cq.rel = "skew"; vars = [ 2; 1 ] } ]
      ~free:[ 0; 2 ]
  in
  let node, _ = Ppr_core.Explain.analyze db (Ppr_core.Straightforward.compile cq) in
  check_bool "misestimate found" true
    (Ppr_core.Explain.largest_misestimate node <> None)

(* ------------------------------------------------------------------ *)
(* Weighted attributes                                                 *)

let mixed_domain_db =
  (* Two binary relations: a 3-color disequality and a 9-color one, so
     variables have very different widths. *)
  let db = Conjunctive.Database.create () in
  let pairs k =
    let rows = ref [] in
    for a = 1 to k do
      for b = 1 to k do
        if a <> b then rows := [ a; b ] :: !rows
      done
    done;
    relation [ 0; 1 ] !rows
  in
  Conjunctive.Database.add db "edge3" (pairs 3);
  Conjunctive.Database.add db "edge9" (pairs 9);
  db

let test_weights_from_database () =
  let cq =
    Cq.make
      ~atoms:[ { Cq.rel = "edge3"; vars = [ 0; 1 ] }; { Cq.rel = "edge9"; vars = [ 2; 3 ] } ]
      ~free:[]
  in
  let weight = Ppr_core.Weighted.weights_from_database mixed_domain_db cq in
  Alcotest.(check (float 1e-6)) "3-color var" (Float.log2 3.0) (weight 0);
  Alcotest.(check (float 1e-6)) "9-color var" (Float.log2 9.0) (weight 2)

let test_weighted_order_prefers_light_scopes () =
  (* A 4-clique where two opposite vertices are heavy: the weighted
     order should eliminate light vertices first (highest positions). *)
  let cq =
    Cq.make
      ~atoms:
        [
          { Cq.rel = "edge9"; vars = [ 0; 2 ] };
          { Cq.rel = "edge3"; vars = [ 0; 1 ] };
          { Cq.rel = "edge3"; vars = [ 1; 2 ] };
          { Cq.rel = "edge3"; vars = [ 1; 3 ] };
          { Cq.rel = "edge3"; vars = [ 2; 3 ] };
          { Cq.rel = "edge3"; vars = [ 0; 3 ] };
        ]
      ~free:[]
  in
  let weight = Ppr_core.Weighted.weights_from_database mixed_domain_db cq in
  let order = Ppr_core.Weighted.variable_order ~weight cq in
  (* On a clique every elimination sees all remaining vertices, so the
     width is fixed; just check the result is a usable order. *)
  Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3 ]
    (List.sort compare (Array.to_list order));
  let plan = Ppr_core.Weighted.compile ~weight cq in
  check_bool "plan answers query" true (Plan.answers_query cq plan);
  check_bool "weighted evaluation agrees with unweighted" true
    (Exec.nonempty mixed_domain_db plan
    = Exec.nonempty mixed_domain_db (Bucket.compile cq))

let prop_weighted_reduces_to_unweighted =
  (* With unit weights the weighted induced width equals the plain one. *)
  qtest ~count:40 "unit weights = plain induced width" graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let order = Bucket.variable_order cq in
      Float.abs
        (Ppr_core.Weighted.weighted_induced_width cq ~weight:(fun _ -> 1.0) order
        -. float_of_int (Bucket.induced_width cq order))
      < 1e-9)

let prop_weighted_width_bounds_cardinality =
  qtest ~count:40 "2^weighted-width bounds intermediate cardinality"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let weight = Ppr_core.Weighted.weights_from_database coloring_db cq in
      let order = Ppr_core.Weighted.variable_order ~weight cq in
      let bound =
        Float.pow 2.0 (Ppr_core.Weighted.weighted_induced_width cq ~weight order)
      in
      let stats = Relalg.Stats.create () in
      ignore
        (Exec.run
           ~ctx:(Relalg.Ctx.create ~stats ())
           coloring_db (Bucket.compile ~order cq));
      (* Bucket joins include the eliminated variable, hence one extra
         factor of its domain. *)
      float_of_int (Relalg.Stats.max_cardinality stats) <= (bound *. 3.0) +. 1e-9)

let prop_weighted_evaluation_agrees =
  qtest ~count:40 "weighted plan computes the same answer" graph_arbitrary
    (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.order g) g in
      let weight = Ppr_core.Weighted.weights_from_database coloring_db cq in
      Relation.equal_modulo_order
        (Exec.run coloring_db (Ppr_core.Weighted.compile ~weight cq))
        (Exec.run coloring_db (Bucket.compile cq)))

(* ------------------------------------------------------------------ *)
(* Streaming: Exec.stream and the cursor-based Driver paths            *)

(* Rows as sorted (variable, value) assignment lists, so answers from
   routes whose output schemas order the free variables differently
   still compare equal. *)
let assignment_row schema tup =
  List.sort compare
    (List.map
       (fun v -> (v, Relalg.Tuple.get tup (Relalg.Schema.index schema v)))
       (Relalg.Schema.attrs schema))

let assignment_rows rel =
  let schema = Relation.schema rel in
  List.sort_uniq compare
    (List.map (assignment_row schema) (Relation.to_sorted_list rel))

let streamed_rows meth db cq =
  let compiled = Driver.prepare meth db cq in
  let semijoin = match meth with Driver.Minibucket _ -> false | _ -> true in
  let cur = Exec.stream ~semijoin db cq compiled in
  let schema = Relalg.Cursor.schema cur in
  let rows = ref [] in
  Relalg.Cursor.iter (fun t -> rows := assignment_row schema t :: !rows) cur;
  List.sort_uniq compare !rows

let stream_methods =
  Driver.all_paper_methods
  @ [ Driver.Minibucket 2; Driver.Hybrid; Driver.Wcoj; Driver.Ghd ]

(* The tentpole property: draining Exec.stream yields exactly the tuples
   the materialized evaluator produces, for every method (Minibucket
   streams without the exact-answer semijoin reroute so its plan stays
   faithfully approximate, matching what Driver.run materializes). *)
let prop_stream_drains_to_materialized =
  qtest ~count:12 "stream drained = materialized run (all methods)"
    graph_arbitrary (fun g ->
      let cq =
        coloring_query ~mode:(Encode.Fraction 0.5)
          ~seed:(G.order g + G.size g)
          g
      in
      List.for_all
        (fun meth ->
          let expected =
            match (Driver.run meth coloring_db cq).Driver.result with
            | Some r -> assignment_rows r
            | None ->
              QCheck.Test.fail_reportf "%s: materialized run failed"
                (Driver.method_name meth)
          in
          let got = streamed_rows meth coloring_db cq in
          got = expected
          || QCheck.Test.fail_reportf "%s: stream %d rows, materialized %d"
               (Driver.method_name meth) (List.length got)
               (List.length expected))
        stream_methods)

(* Limit-k prefix soundness: every streamed tuple is in the full answer,
   the page is as large as the answer allows, and [complete] never lies
   (it may be conservatively false when the page exactly exhausts the
   stream, but true always means nothing was left behind). *)
let prop_stream_limit_prefix =
  qtest ~count:30 "limit-k pages are sound prefixes"
    QCheck.(pair graph_arbitrary (int_range 0 5))
    (fun (g, k) ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.5) ~seed:3 g in
      List.for_all
        (fun meth ->
          let full = Driver.run meth coloring_db cq in
          let page = Driver.run ~limit:k meth coloring_db cq in
          match (full.Driver.result, page.Driver.result) with
          | Some fr, Some pr ->
            let frows = assignment_rows fr and prows = assignment_rows pr in
            List.length prows = min k (List.length frows)
            && List.for_all (fun r -> List.mem r frows) prows
            && (not page.Driver.complete || prows = frows)
            && (page.Driver.complete || List.length prows = k)
          | _ -> false)
        [ Driver.Bucket_elimination; Driver.Wcoj; Driver.Ghd ])

let test_stream_abort_mid_stream () =
  let g = Graphlib.Generators.augmented_ladder 12 in
  let cq = coloring_query ~mode:(Encode.Fraction 0.5) ~seed:1 g in
  (* A tuple cap the 6-tuple base relations cannot trip during eager
     setup, so the abort necessarily fires from a streamed join output —
     i.e. out of a pull, not out of [Exec.stream] itself. *)
  let limits = Relalg.Limits.create ~max_tuples:50 () in
  let compiled = Driver.prepare Driver.Straightforward coloring_db cq in
  let cur =
    Exec.stream
      ~ctx:(Relalg.Ctx.create ~limits ())
      coloring_db cq compiled
  in
  let aborted =
    try
      Relalg.Cursor.iter (fun _ -> ()) cur;
      false
    with Relalg.Limits.Abort _ -> true
  in
  check_bool "abort propagates out of a pull" true aborted;
  check_bool "cursor closed itself before raising" true
    (Relalg.Cursor.closed cur);
  (* The same abort through the driver is caught and typed, never raised. *)
  let o =
    Driver.run
      ~ctx:(Relalg.Ctx.create ~limits:(Relalg.Limits.create ~max_total:200 ()) ())
      ~limit:5 Driver.Straightforward coloring_db cq
  in
  check_bool "driver reports the streamed abort" true
    (Driver.abort_reason o <> None);
  check_bool "no partial page leaks" true (o.Driver.result = None)

let test_driver_stream_outcome () =
  let cq =
    coloring_query ~mode:(Encode.Fraction 0.6) ~seed:7 Graphlib.Generators.pentagon
  in
  let o = Driver.run ~limit:2 Driver.Bucket_elimination coloring_db cq in
  check_bool "streamed page completed" true (o.Driver.status = Driver.Completed);
  check_bool "first answer timed" true (o.Driver.first_answer_seconds <> None);
  check_bool "time to k timed" true (o.Driver.time_to_k <> None);
  Alcotest.(check (option int)) "page cardinality" (Some 2)
    (Driver.result_cardinality o);
  (* limit 0 is a legal empty page *)
  let z = Driver.run ~limit:0 Driver.Bucket_elimination coloring_db cq in
  Alcotest.(check (option int)) "empty page" (Some 0)
    (Driver.result_cardinality z);
  check_bool "no first answer on an empty page" true
    (z.Driver.first_answer_seconds = None);
  (* unstreamed runs never fill the streaming fields *)
  let m = Driver.run Driver.Bucket_elimination coloring_db cq in
  check_bool "materialized run is complete" true m.Driver.complete;
  check_bool "materialized run has no stream timings" true
    (m.Driver.first_answer_seconds = None && m.Driver.time_to_k = None)

let test_driver_rank_topk () =
  let cq =
    coloring_query ~mode:(Encode.Fraction 0.6) ~seed:7
      (Graphlib.Generators.cycle 5)
  in
  let cmp = Relalg.Tuple.compare in
  let all = Driver.run ~rank:cmp Driver.Bucket_elimination coloring_db cq in
  let top = Driver.run ~rank:cmp ~limit:3 Driver.Bucket_elimination coloring_db cq in
  match (all.Driver.result, top.Driver.result) with
  | Some ar, Some tr ->
    check_bool "ranked full drain is complete" true all.Driver.complete;
    let a_tups = Relation.to_sorted_list ar in
    let t_tups = Relation.to_sorted_list tr in
    check_int "top-k size" (min 3 (List.length a_tups)) (List.length t_tups);
    check_bool "top-k tuples come from the full answer" true
      (List.for_all
         (fun t -> List.exists (fun u -> cmp u t = 0) a_tups)
         t_tups);
    let discarded =
      List.filter
        (fun t -> not (List.exists (fun u -> cmp u t = 0) t_tups))
        a_tups
    in
    check_bool "every kept tuple ranks before every discarded one" true
      (List.for_all
         (fun kept -> List.for_all (fun d -> cmp kept d <= 0) discarded)
         t_tups)
  | _ -> Alcotest.fail "ranked runs failed"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let test_driver_outcome_fields () =
  let o = Driver.run Driver.Bucket_elimination coloring_db pentagon_cq in
  check_bool "not aborted" true (Driver.abort_reason o = None);
  check_bool "completed status" true (o.Driver.status = Driver.Completed);
  Alcotest.(check (option bool)) "pentagon colorable" (Some true)
    (Driver.nonempty o);
  check_bool "measured within plan width" true
    (o.Driver.max_arity <= o.Driver.plan_width);
  check_bool "times nonnegative" true
    (o.Driver.compile_seconds >= 0. && o.Driver.exec_seconds >= 0.)

let test_driver_timeout_reported () =
  let g = Graphlib.Generators.augmented_ladder 12 in
  let cq = coloring_query g in
  let limits = Relalg.Limits.create ~max_tuples:100 ~max_total:1000 () in
  let o =
    Driver.run ~ctx:(Relalg.Ctx.create ~limits ()) Driver.Straightforward
      coloring_db cq
  in
  check_bool "aborted" true (Driver.abort_reason o <> None);
  (match Driver.abort_reason o with
  | Some (Relalg.Limits.Cardinality _ | Relalg.Limits.Tuple_budget) -> ()
  | other ->
    Alcotest.failf "expected a resource abort reason, got %s"
      (match other with
      | None -> "Completed"
      | Some r -> Relalg.Limits.describe r));
  Alcotest.(check (option bool)) "no verdict" None (Driver.nonempty o);
  Alcotest.(check (option int)) "no cardinality" None (Driver.result_cardinality o)

let test_method_names () =
  Alcotest.(check string) "bucket" "bucket-elimination"
    (Driver.method_name Driver.Bucket_elimination);
  Alcotest.(check string) "minibucket" "minibucket(3)"
    (Driver.method_name (Driver.Minibucket 3));
  check_int "five paper methods" 5 (List.length Driver.all_paper_methods)

let () =
  Alcotest.run "core"
    ([
      ( "plan",
        [
          Alcotest.test_case "schema" `Quick test_plan_schema;
          Alcotest.test_case "width and counts" `Quick test_plan_width_counts;
          Alcotest.test_case "helpers" `Quick test_plan_helpers;
          Alcotest.test_case "answers_query" `Quick test_answers_query;
        ] );
      ( "exec",
        [
          Alcotest.test_case "boolean result" `Quick test_exec_boolean_result;
          Alcotest.test_case "stats measure width" `Quick
            test_exec_stats_measure_width;
        ] );
      ( "cost",
        [
          Alcotest.test_case "environment" `Quick test_cost_environment;
          Alcotest.test_case "estimates" `Quick test_cost_estimates;
          Alcotest.test_case "order cost" `Quick test_order_cost_matches_plan_cost;
        ] );
      ( "naive",
        [
          Alcotest.test_case "dp quality" `Quick test_dp_beats_bad_orders;
          Alcotest.test_case "genetic validity" `Quick test_genetic_order_valid;
          Alcotest.test_case "genetic quality" `Quick
            test_genetic_improves_over_median_random;
          Alcotest.test_case "compile structure" `Quick
            test_naive_compile_structure;
          prop_bushy_never_beats_nothing;
          prop_bushy_correct;
          Alcotest.test_case "bushy cap" `Quick test_bushy_rejects_large;
        ] );
      ( "method agreement",
        [
          prop_methods_agree_boolean;
          prop_methods_agree_non_boolean;
          prop_non_boolean_matches_oracle;
          prop_every_route_matches_oracle;
          prop_methods_widths_ordered;
        ] );
      ( "early projection & reordering",
        [
          Alcotest.test_case "live_after" `Quick test_live_after;
          Alcotest.test_case "path stays narrow" `Quick
            test_early_projection_on_path;
          Alcotest.test_case "greedy picks unique vars" `Quick
            test_reorder_permutation_greedy;
          Alcotest.test_case "deterministic" `Quick
            test_reorder_deterministic_without_rng;
        ] );
      ( "bucket elimination",
        [
          Alcotest.test_case "order validation" `Quick
            test_bucket_order_rejects_non_permutation;
          Alcotest.test_case "pentagon widths" `Quick test_bucket_pentagon_width;
          prop_theorem2;
          prop_mcs_induced_width_at_least_treewidth;
          prop_bucket_plan_width_is_induced_width_plus_one;
        ] );
      ( "mini-buckets",
        [
          Alcotest.test_case "validation" `Quick test_minibucket_validation;
          Alcotest.test_case "width capped" `Quick test_minibucket_width_capped;
          prop_minibucket_sound_on_empty;
          prop_minibucket_exact_at_high_bound;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "portfolio" `Quick test_hybrid_candidates_sorted;
          prop_hybrid_agrees;
          prop_hybrid_no_wider_than_mcs_bucket;
        ] );
      ( "semijoin reduction",
        [
          prop_semijoin_useless_on_coloring;
          Alcotest.test_case "selective chain" `Quick
            test_semijoin_helps_on_selective_instance;
          prop_semijoin_preserves_answers;
        ] );
      ( "explain",
        [
          Alcotest.test_case "pentagon" `Quick test_explain_pentagon;
          prop_explain_tree_mirrors_plan;
          Alcotest.test_case "misestimate detection" `Quick
            test_explain_detects_misestimates;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "weights from database" `Quick
            test_weights_from_database;
          Alcotest.test_case "mixed-domain order" `Quick
            test_weighted_order_prefers_light_scopes;
          prop_weighted_reduces_to_unweighted;
          prop_weighted_width_bounds_cardinality;
          prop_weighted_evaluation_agrees;
        ] );
      ( "stream",
        [
          prop_stream_drains_to_materialized;
          prop_stream_limit_prefix;
          Alcotest.test_case "abort propagates mid-stream" `Quick
            test_stream_abort_mid_stream;
          Alcotest.test_case "streamed outcome fields" `Quick
            test_driver_stream_outcome;
          Alcotest.test_case "rank top-k" `Quick test_driver_rank_topk;
        ] );
      ( "driver",
        [
          Alcotest.test_case "outcome fields" `Quick test_driver_outcome_fields;
          Alcotest.test_case "timeout reported" `Quick
            test_driver_timeout_reported;
          Alcotest.test_case "method names" `Quick test_method_names;
        ] );
    ]
    @ oracle_route_suites)
