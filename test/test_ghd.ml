(* Tests for decomposition-based evaluation: GHD search validity, the
   three-bound gate, and — the load-bearing property — tuple-identical
   output against bucket elimination on acyclic AND cyclic instances. *)

open Helpers
module Cq = Conjunctive.Cq
module Encode = Conjunctive.Encode
module Relation = Relalg.Relation
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Gen = Graphlib.Generators
module Hypergraph = Hypergraphs.Hypergraph
module Hypertree = Hypergraphs.Hypertree
module Gyo = Hypergraphs.Gyo

let bucket_result ?ctx db cq =
  let plan = Ppr_core.Bucket.compile ~rng:(rng 11) cq in
  Ppr_core.Exec.run ?ctx db plan

let coloring ~mode g =
  (coloring_db, Encode.coloring_query_of_graph ~mode ~rng:(rng 7) g)

(* ------------------------------------------------------------------ *)
(* Decomposition search                                                 *)

let check_decomposition name g =
  let _db, cq = coloring ~mode:Encode.Boolean g in
  let hg = Hypergraph.of_query cq in
  let htd = Ghd.search ~rng:(rng 5) hg in
  check_bool (name ^ ": decomposition valid") true (Hypertree.is_valid hg htd);
  if Gyo.is_acyclic hg then
    check_int (name ^ ": acyclic width 1") 1 (Hypertree.width htd)
  else
    check_bool (name ^ ": cyclic width >= 2") true (Hypertree.width htd >= 2)

let test_search_fixed () =
  List.iter
    (fun (name, g) -> check_decomposition name g)
    [
      ("path", Gen.path 7);
      ("triangle", Gen.cycle 3);
      ("pentagon", Gen.cycle 5);
      ("ladder", Gen.ladder 4);
      ("augmented ladder", Gen.augmented_ladder 4);
      ("clique", Gen.clique 5);
      ("dense", random_graph ~seed:3 ~n:8 ~m:20);
      ("sparse", random_graph ~seed:4 ~n:9 ~m:9);
    ]

let prop_search_valid =
  qtest ~count:80 "search emits a valid GHD (random hypergraphs)"
    graph_arbitrary (fun g ->
      let _db, cq = coloring ~mode:Encode.Boolean g in
      let hg = Hypergraph.of_query cq in
      let htd = Ghd.search ~rng:(rng 5) hg in
      Hypertree.is_valid hg htd
      && (not (Gyo.is_acyclic hg) || Hypertree.width htd = 1))

(* ------------------------------------------------------------------ *)
(* The three-bound gate                                                 *)

let test_gate_routes () =
  (* Acyclic: every bag is one atom, so the ghd bound is log2 |edge| =
     log2 6 — under the bucket bound (induced_width+1) * log2 3. *)
  let db, path_cq = coloring ~mode:Encode.Boolean (Gen.path 8) in
  let prep = Ghd.prepare ~rng:(rng 1) db path_cq in
  check_bool "path -> ghd" true (prep.Ghd.decision = Ghd.Ghd);
  check_int "path htw 1" 1 prep.Ghd.htw;
  (* A long cycle: htw 2 costs two joined edge atoms (log2 36), while
     bucket's induced width 2 costs 3 * log2 3 — bucket wins. *)
  let db, cyc_cq = coloring ~mode:Encode.Boolean (Gen.cycle 8) in
  let prep = Ghd.prepare ~rng:(rng 1) db cyc_cq in
  check_bool "cycle -> bucket" true (prep.Ghd.decision = Ghd.Bucket);
  (* Dense: induced width near n and bags near the whole query push both
     structural bounds past the AGM bound — generic join wins. *)
  let db, dense_cq =
    coloring ~mode:Encode.Boolean (random_graph ~seed:5 ~n:10 ~m:45)
  in
  let prep = Ghd.prepare ~rng:(rng 1) db dense_cq in
  check_bool "dense -> generic" true (prep.Ghd.decision = Ghd.Generic);
  (* The decision is the argmin of the three bounds on one scale. *)
  let bounds (p : Ghd.prep) =
    ( p.Ghd.binary_bound_log2,
      p.Ghd.agm.Wcoj.Agm.bound_log2,
      p.Ghd.ghd_bound_log2 )
  in
  List.iter
    (fun (_db, cq) ->
      let p = Ghd.prepare ~rng:(rng 1) db cq in
      let b, g, h = bounds p in
      let expected =
        if b <= g && b <= h then Ghd.Bucket
        else if h < g then Ghd.Ghd
        else Ghd.Generic
      in
      check_bool "decision = argmin of the bounds" true
        (p.Ghd.decision = expected))
    [
      coloring ~mode:Encode.Boolean (Gen.path 8);
      coloring ~mode:Encode.Boolean (Gen.cycle 8);
      (db, dense_cq);
    ]

let test_gate_env_override () =
  let db, cq = coloring ~mode:Encode.Boolean (Gen.cycle 8) in
  List.iter
    (fun (route, expected) ->
      with_gate route (fun () ->
          let p = Ghd.prepare ~rng:(rng 1) db cq in
          check_bool ("PPR_GHD_GATE=" ^ route) true (p.Ghd.decision = expected)))
    [ ("bucket", Ghd.Bucket); ("generic", Ghd.Generic); ("ghd", Ghd.Ghd) ]

let test_gate_low_htw_panel () =
  (* Cyclic low-htw structure: augmented ladders have treewidth >= 3 but
     hypertree width 2 (each triangle-ish cluster is two edges), so the
     gate must route them to the decomposition. (The bench gate's timed
     panel uses grids, where the induced-width gap also grows.) *)
  let db, cq = coloring ~mode:Encode.Boolean (Gen.augmented_ladder 5) in
  let prep = Ghd.prepare ~rng:(rng 1) db cq in
  check_bool "augmented ladder htw 2" true (prep.Ghd.htw = 2);
  check_bool "augmented ladder -> ghd" true (prep.Ghd.decision = Ghd.Ghd);
  check_bool "ghd bound under bucket bound" true
    (prep.Ghd.ghd_bound_log2 < prep.Ghd.binary_bound_log2)

(* ------------------------------------------------------------------ *)
(* Output identity vs bucket elimination                                *)

let check_same_answer name db cq =
  let expected = bucket_result db cq in
  let got = Ghd.evaluate db cq in
  check_bool (name ^ ": same tuples as bucket elimination") true
    (Relation.equal_modulo_order expected got)

let test_fixed_instances () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (mname, mode) ->
          let db, cq = coloring ~mode g in
          check_same_answer (name ^ "/" ^ mname) db cq)
        [
          ("bool", Encode.Boolean);
          ("emulated", Encode.Emulated_boolean);
          ("free", Encode.Fraction 0.5);
        ])
    [
      ("triangle", Gen.cycle 3);
      ("pentagon", Gen.cycle 5);
      ("path", Gen.path 6);
      ("ladder", Gen.ladder 4);
      ("augmented ladder", Gen.augmented_ladder 4);
      ("dense", random_graph ~seed:9 ~n:8 ~m:22);
      ("sparse", random_graph ~seed:10 ~n:9 ~m:9);
      ("unsat clique", Gen.clique 5);
    ]

let test_oracle_agreement () =
  (* Independent of the relational engine entirely: the free-variable
     tuples are exactly the proper colorings restricted to them. *)
  let g = random_graph ~seed:21 ~n:7 ~m:12 in
  let db, cq = coloring ~mode:(Encode.Fraction 1.0) g in
  let keep = cq.Cq.free in
  let expected = all_colorings g ~keep in
  (* Read columns in [keep] order — the decomposition's output schema
     orders them by the sweeps' join order, not the free list. *)
  Alcotest.(check (list (list int))) "matches brute-force colorings"
    expected
    (rows_in_order keep (Ghd.evaluate db cq))

let prop_matches_bucket =
  qtest ~count:60 "ghd = bucket elimination (random CQs)" graph_arbitrary
    (fun g ->
      List.for_all
        (fun mode ->
          let db, cq = coloring ~mode g in
          let expected = bucket_result db cq in
          Relation.equal_modulo_order expected (Ghd.evaluate db cq)
          (* And through the gated driver: whatever route the gate picks,
             the answer cardinality must agree. *)
          &&
          let outcome =
            Ppr_core.Driver.run ~rng:(rng 3) Ppr_core.Driver.Ghd db cq
          in
          Ppr_core.Driver.result_cardinality outcome
          = Some (Relation.cardinality expected))
        [ Encode.Boolean; Encode.Fraction 0.4 ])

(* Figure 3's misroute: a random order-16, density-7 3-COLOR query the
   gate sends to the decomposition. Joining a bag's seven disjoint cover
   edges before filtering used to materialize 6^7 = 279,936 rows; one
   generic join over every atom inside the bag keeps each bag at the
   handful of rows the answer needs. Exact counts, so deterministic. *)
let fig3_bag_ceiling = 64

let test_fig3_misroute () =
  List.iter
    (fun (mname, mode) ->
      let r = rng 1002 in
      let g = Gen.random ~rng:r ~n:16 ~m:112 in
      let cq =
        Encode.coloring_query_of_graph ~mode ~rng:(Graphlib.Rng.split r) g
      in
      let db = coloring_db in
      let expected = bucket_result db cq in
      with_gate "ghd" (fun () ->
          let outcome =
            Ppr_core.Driver.run ~rng:(rng 3) Ppr_core.Driver.Ghd db cq
          in
          check_bool (mname ^ ": forced ghd = bucket elimination") true
            (match outcome.Ppr_core.Driver.result with
            | Some got -> Relation.equal_modulo_order expected got
            | None -> false);
          let peak = outcome.Ppr_core.Driver.max_cardinality in
          check_bool
            (Printf.sprintf "%s: max_cardinality %d <= %d" mname peak
               fig3_bag_ceiling)
            true
            (peak <= fig3_bag_ceiling)))
    [ ("bool", Encode.Boolean); ("free20", Encode.Fraction 0.2) ]

(* ------------------------------------------------------------------ *)
(* Driver integration: prepared artifacts and the ladder                *)

let test_prepared_replay () =
  (* The serving layer's cache-hit path: prepare once, re-execute the
     compiled artifact many times. Every route must replay identically. *)
  List.iter
    (fun (name, g) ->
      let db, cq = coloring ~mode:Encode.Boolean g in
      let expected = bucket_result db cq in
      let compiled =
        Ppr_core.Driver.prepare ~rng:(rng 2) Ppr_core.Driver.Ghd db cq
      in
      (match compiled with
      | Ppr_core.Driver.Decomposed (prep, plan) ->
        check_bool
          (name ^ ": bucket plan rides along iff the gate picked bucket")
          (prep.Ghd.decision = Ghd.Bucket)
          (plan <> None)
      | _ -> Alcotest.fail (name ^ ": Ghd prepare must return Decomposed"));
      List.iter
        (fun i ->
          let outcome =
            Ppr_core.Driver.run ~rng:(rng (100 + i)) ~compiled
              Ppr_core.Driver.Ghd db cq
          in
          check_bool
            (Printf.sprintf "%s: replay %d same cardinality" name i)
            true
            (Ppr_core.Driver.result_cardinality outcome
            = Some (Relation.cardinality expected)))
        [ 0; 1 ])
    [
      ("acyclic", Gen.path 8);
      ("cyclic low htw", Gen.augmented_ladder 4);
      ("dense", random_graph ~seed:5 ~n:10 ~m:45);
    ]

let test_forced_routes_agree () =
  (* All three forced gate routes compute the same answer. *)
  let db, cq = coloring ~mode:(Encode.Fraction 0.5) (Gen.augmented_ladder 4) in
  let expected = bucket_result db cq in
  List.iter
    (fun route ->
      with_gate route (fun () ->
          let outcome =
            Ppr_core.Driver.run ~rng:(rng 3) Ppr_core.Driver.Ghd db cq
          in
          check_bool (route ^ " route same cardinality") true
            (Ppr_core.Driver.result_cardinality outcome
            = Some (Relation.cardinality expected))))
    [ "bucket"; "generic"; "ghd" ]

let test_supervised_ladder () =
  (* Ghd sits at the top of its own degradation ladder; an impossible
     first budget must fall through to a completing rung. *)
  let db, cq = coloring ~mode:Encode.Boolean (Gen.augmented_ladder 3) in
  let budget = Supervise.Budget.with_fuel 1 Supervise.Budget.default in
  let report =
    Supervise.run ~rng:(rng 4) ~budget ~budget_scaling:1000.0
      Ppr_core.Driver.Ghd db cq
  in
  check_bool "ladder rescued the query" true
    (Option.is_some report.Supervise.result)

(* ------------------------------------------------------------------ *)
(* Guards and validation                                                *)

let test_abort_propagates () =
  let db, cq =
    coloring ~mode:(Encode.Fraction 1.0) (random_graph ~seed:2 ~n:9 ~m:12)
  in
  let trip limits =
    try
      ignore (Ghd.evaluate ~ctx:(Ctx.create ~limits ()) db cq);
      Alcotest.fail "expected an abort"
    with Limits.Abort _ -> ()
  in
  trip (Limits.create ~max_total:10 ());
  trip (Limits.create ~max_tuples:3 ())

let test_prep_mismatch_rejected () =
  let db, small = coloring ~mode:Encode.Boolean (Gen.cycle 3) in
  let _, large = coloring ~mode:Encode.Boolean (Gen.cycle 5) in
  let prep = Ghd.prepare ~rng:(rng 1) db small in
  check_bool "mismatched prep rejected" true
    (try
       ignore (Ghd.evaluate ~prep db large);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "ghd"
    [
         ( "search",
           [
             Alcotest.test_case "fixed families" `Quick test_search_fixed;
             prop_search_valid;
           ] );
         ( "gate",
           [
             Alcotest.test_case "routes" `Quick test_gate_routes;
             Alcotest.test_case "env override" `Quick test_gate_env_override;
             Alcotest.test_case "cyclic low-htw panel" `Quick
               test_gate_low_htw_panel;
           ] );
         ( "identity",
           [
             Alcotest.test_case "fixed instances" `Quick test_fixed_instances;
             Alcotest.test_case "oracle agreement" `Quick
               test_oracle_agreement;
             prop_matches_bucket;
             Alcotest.test_case "figure 3 misroute" `Quick test_fig3_misroute;
           ] );
         ( "driver",
           [
             Alcotest.test_case "prepared replay" `Quick test_prepared_replay;
             Alcotest.test_case "forced routes agree" `Quick
               test_forced_routes_agree;
             Alcotest.test_case "supervised ladder" `Quick
               test_supervised_ladder;
           ] );
         ( "guards",
           [
             Alcotest.test_case "aborts propagate" `Quick
               test_abort_propagates;
             Alcotest.test_case "prep mismatch rejected" `Quick
               test_prep_mismatch_rejected;
           ] );
       ]
