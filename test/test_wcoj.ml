(* Tests for the worst-case-optimal generic join: AGM cover soundness,
   the plan gate, and — the load-bearing property — tuple-identical
   output against bucket elimination on fixed and random instances. *)

open Helpers
module Agm = Wcoj.Agm
module Cq = Conjunctive.Cq
module Encode = Conjunctive.Encode
module Relation = Relalg.Relation
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Gen = Graphlib.Generators

let bucket_result ?ctx db cq =
  let plan = Ppr_core.Bucket.compile ~rng:(rng 11) cq in
  Ppr_core.Exec.run ?ctx db plan

let coloring ~mode g =
  (coloring_db, Encode.coloring_query_of_graph ~mode ~rng:(rng 7) g)

(* ------------------------------------------------------------------ *)
(* AGM estimator                                                       *)

let cover_feasible cq (a : Agm.t) =
  let atoms = Array.of_list cq.Cq.atoms in
  List.for_all
    (fun v ->
      let coverage = ref 0.0 in
      Array.iteri
        (fun i atom ->
          if List.mem v (Cq.atom_vars atom) then
            coverage := !coverage +. a.Agm.weights.(i))
        atoms;
      !coverage >= 1.0 -. 1e-6)
    (Cq.vars cq)

let test_agm_feasible_and_sound () =
  let checks =
    [
      ("triangle", Gen.cycle 3);
      ("pentagon", Gen.cycle 5);
      ("dense", random_graph ~seed:3 ~n:8 ~m:20);
    ]
  in
  List.iter
    (fun (name, g) ->
      (* Free all variables so the output is the full solution set the
         AGM bound promises to dominate. *)
      let db, cq = coloring ~mode:(Encode.Fraction 1.0) g in
      let a = Agm.fractional_edge_cover db cq in
      check_bool (name ^ ": cover feasible") true (cover_feasible cq a);
      check_bool (name ^ ": weights in [0,1]") true
        (Array.for_all (fun w -> w >= 0.0 && w <= 1.0) a.Agm.weights);
      let actual =
        float_of_int (Relation.cardinality (bucket_result db cq))
      in
      check_bool
        (Printf.sprintf "%s: bound 2^%.2f >= %g tuples" name
           a.Agm.bound_log2 actual)
        true
        (Agm.bound_tuples a >= actual))
    checks

let test_gate_sanity () =
  (* A path has treewidth 1: the binary plan's bound is tiny while the
     AGM bound is ~|R|^(n/2) — the gate must keep the bucket plan. *)
  let db, path_cq = coloring ~mode:Encode.Boolean (Gen.path 10) in
  let prep = Wcoj.prepare ~rng:(rng 1) db path_cq in
  check_bool "path -> binary" true (prep.Wcoj.decision = Wcoj.Binary);
  (* A dense graph has induced width near n: the AGM bound (~n/2 atoms
     of weight 1) undercuts the binary worst case — generic join wins. *)
  let db, dense_cq =
    coloring ~mode:Encode.Boolean (random_graph ~seed:5 ~n:10 ~m:45)
  in
  let prep = Wcoj.prepare ~rng:(rng 1) db dense_cq in
  check_bool "dense -> generic" true (prep.Wcoj.decision = Wcoj.Generic);
  check_bool "bound comparison agrees" true
    (prep.Wcoj.agm.Agm.bound_log2 <= prep.Wcoj.binary_bound_log2);
  (* The order the gate hands out is usable as-is: a permutation with
     the free variables first. *)
  let db, free_cq =
    coloring ~mode:(Encode.Fraction 0.3) (random_graph ~seed:5 ~n:8 ~m:16)
  in
  let prep = Wcoj.prepare ~rng:(rng 1) db free_cq in
  check_bool "order is permutation" true
    (List.sort compare prep.Wcoj.order = Cq.vars free_cq);
  let prefix_len = List.length free_cq.Cq.free in
  check_bool "free vars first" true
    (List.filteri (fun i _ -> i < prefix_len) prep.Wcoj.order
    = free_cq.Cq.free)

(* ------------------------------------------------------------------ *)
(* Output identity vs bucket elimination                               *)

let check_same_answer name db cq =
  let expected = bucket_result db cq in
  let got = Wcoj.evaluate db cq in
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
      ("dense", random_graph ~seed:9 ~n:8 ~m:22);
      ("sparse", random_graph ~seed:10 ~n:9 ~m:9);
    ]

let test_oracle_agreement () =
  (* Independent of the relational engine entirely: the generic join's
     free-variable tuples are exactly the proper colorings restricted to
     the free variables. *)
  let g = random_graph ~seed:21 ~n:7 ~m:12 in
  let db, cq = coloring ~mode:(Encode.Fraction 1.0) g in
  let keep = cq.Cq.free in
  let expected = all_colorings g ~keep in
  let got =
    List.sort_uniq compare
      (List.map Relalg.Tuple.to_list
         (Relation.to_sorted_list (Wcoj.evaluate db cq)))
  in
  Alcotest.(check (list (list int))) "matches brute-force colorings"
    expected got

let prop_matches_bucket =
  qtest ~count:60 "wcoj = bucket elimination (random CQs)" graph_arbitrary
    (fun g ->
      List.for_all
        (fun mode ->
          let db, cq = coloring ~mode g in
          let expected = bucket_result db cq in
          Relation.equal_modulo_order expected (Wcoj.evaluate db cq)
          (* And through the gated driver: whatever side the gate picks,
             the answer cardinality must agree. *)
          &&
          let outcome =
            Ppr_core.Driver.run ~rng:(rng 3) Ppr_core.Driver.Wcoj db cq
          in
          Ppr_core.Driver.result_cardinality outcome
          = Some (Relation.cardinality expected))
        [ Encode.Boolean; Encode.Fraction 0.4 ])

(* ------------------------------------------------------------------ *)
(* Limits and validation                                               *)

let test_abort_propagates () =
  let db, cq =
    coloring ~mode:(Encode.Fraction 1.0) (random_graph ~seed:2 ~n:9 ~m:12)
  in
  let trip limits =
    try
      ignore (Wcoj.evaluate ~ctx:(Ctx.create ~limits ()) db cq);
      Alcotest.fail "expected an abort"
    with Limits.Abort _ -> ()
  in
  trip (Limits.create ~max_total:10 ());
  trip (Limits.create ~max_tuples:3 ())

let test_order_validation () =
  let db, cq = coloring ~mode:Encode.Boolean (Gen.cycle 3) in
  let invalid order =
    try
      ignore (Wcoj.evaluate ~order db cq);
      false
    with Invalid_argument _ -> true
  in
  check_bool "non-permutation rejected" true (invalid [ 0; 1 ]);
  check_bool "unknown variable rejected" true (invalid [ 0; 1; 7 ]);
  let db, free_cq =
    coloring ~mode:(Encode.Fraction 0.5) (random_graph ~seed:8 ~n:6 ~m:8)
  in
  (match free_cq.Cq.free with
  | [] -> ()
  | _ ->
    let reversed = List.rev (Cq.vars free_cq) in
    let misordered =
      (* Some permutation that does not start with the free prefix. *)
      if
        List.filteri
          (fun i _ -> i < List.length free_cq.Cq.free)
          reversed
        = free_cq.Cq.free
      then List.tl reversed @ [ List.hd reversed ]
      else reversed
    in
    check_bool "free vars must come first" true
      (try
         ignore (Wcoj.evaluate ~order:misordered db free_cq);
         false
       with Invalid_argument _ -> true))

let () =
  Alcotest.run "wcoj"
    [
         ( "agm",
           [
             Alcotest.test_case "feasible and sound" `Quick
               test_agm_feasible_and_sound;
             Alcotest.test_case "gate sanity" `Quick test_gate_sanity;
           ] );
         ( "identity",
           [
             Alcotest.test_case "fixed instances" `Quick test_fixed_instances;
             Alcotest.test_case "oracle agreement" `Quick
               test_oracle_agreement;
             prop_matches_bucket;
           ] );
         ( "guards",
           [
             Alcotest.test_case "aborts propagate" `Quick
               test_abort_propagates;
             Alcotest.test_case "order validation" `Quick
               test_order_validation;
           ] );
       ]
