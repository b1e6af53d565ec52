(* Unit and property tests for the relational-algebra engine. *)

open Helpers
module Schema = Relalg.Schema
module Tuple = Relalg.Tuple
module Relation = Relalg.Relation
module Ops = Relalg.Ops

(* ------------------------------------------------------------------ *)
(* Symbol                                                              *)

let test_symbol_roundtrip () =
  let t = Relalg.Symbol.create () in
  let a = Relalg.Symbol.intern t "alpha" in
  let b = Relalg.Symbol.intern t "beta" in
  check_int "codes are dense" 0 a;
  check_int "second code" 1 b;
  check_int "idempotent" a (Relalg.Symbol.intern t "alpha");
  Alcotest.(check string) "name back" "beta" (Relalg.Symbol.name t b);
  check_int "size" 2 (Relalg.Symbol.size t)

let test_symbol_growth () =
  let t = Relalg.Symbol.create () in
  for i = 0 to 999 do
    ignore (Relalg.Symbol.intern t (string_of_int i))
  done;
  check_int "all interned" 1000 (Relalg.Symbol.size t);
  Alcotest.(check string) "spot check" "777" (Relalg.Symbol.name t 777);
  Alcotest.check_raises "unknown code" Not_found (fun () ->
      ignore (Relalg.Symbol.name t 1000))

(* ------------------------------------------------------------------ *)
(* Tuple                                                               *)

let test_tuple_basics () =
  let t = Tuple.of_list [ 3; 1; 4 ] in
  check_int "arity" 3 (Tuple.arity t);
  check_int "get" 4 (Tuple.get t 2);
  check_bool "equal" true (Tuple.equal t (Tuple.of_list [ 3; 1; 4 ]));
  check_bool "not equal" false (Tuple.equal t (Tuple.of_list [ 3; 1; 5 ]));
  check_bool "shorter differs" false (Tuple.equal t (Tuple.of_list [ 3; 1 ]))

let test_tuple_project_concat () =
  let t = Tuple.of_list [ 10; 20; 30 ] in
  Alcotest.(check (list int)) "project" [ 30; 10; 30 ]
    (Tuple.to_list (Tuple.project t [| 2; 0; 2 |]));
  Alcotest.(check (list int)) "concat" [ 10; 20; 30; 1 ]
    (Tuple.to_list (Tuple.concat t (Tuple.of_list [ 1 ])))

let tuple_pair_arbitrary =
  QCheck.(pair (list_of_size (Gen.int_range 0 12) small_int)
            (list_of_size (Gen.int_range 0 12) small_int))

let prop_tuple_hash_consistent =
  qtest "hash agrees with equal" tuple_pair_arbitrary (fun (a, b) ->
      let ta = Tuple.of_list a and tb = Tuple.of_list b in
      (not (Tuple.equal ta tb)) || Tuple.hash ta = Tuple.hash tb)

let prop_tuple_compare_total =
  qtest "compare consistent with equal" tuple_pair_arbitrary (fun (a, b) ->
      let ta = Tuple.of_list a and tb = Tuple.of_list b in
      Tuple.equal ta tb = (Tuple.compare ta tb = 0))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)

let test_schema_construction () =
  let s = Schema.of_list [ 5; 2; 9 ] in
  check_int "arity" 3 (Schema.arity s);
  check_int "index" 1 (Schema.index s 2);
  check_bool "mem" true (Schema.mem s 9);
  check_bool "not mem" false (Schema.mem s 3);
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Schema: duplicate attribute 5") (fun () ->
      ignore (Schema.of_list [ 5; 2; 5 ]))

let test_schema_set_operations () =
  let a = Schema.of_list [ 1; 2; 3 ] and b = Schema.of_list [ 3; 4; 1 ] in
  Alcotest.(check (list int)) "inter keeps left order" [ 1; 3 ]
    (Schema.attrs (Schema.inter a b));
  Alcotest.(check (list int)) "diff" [ 2 ] (Schema.attrs (Schema.diff a b));
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ]
    (Schema.attrs (Schema.union a b));
  check_bool "subset" true (Schema.subset (Schema.of_list [ 2; 1 ]) a);
  check_bool "not subset" false (Schema.subset b a);
  check_bool "disjoint" true
    (Schema.is_disjoint a (Schema.of_list [ 7; 8 ]));
  check_bool "equal as set" true (Schema.equal_as_set a (Schema.of_list [ 3; 1; 2 ]))

let test_schema_positions () =
  let whole = Schema.of_list [ 10; 20; 30; 40 ] in
  Alcotest.(check (array int)) "positions" [| 2; 0 |]
    (Schema.positions (Schema.of_list [ 30; 10 ]) whole);
  Alcotest.check_raises "missing attr" Not_found (fun () ->
      ignore (Schema.positions (Schema.of_list [ 99 ]) whole))

(* ------------------------------------------------------------------ *)
(* Relation                                                            *)

let test_relation_set_semantics () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 1; 2 ]; [ 2; 1 ] ] in
  check_int "duplicates merged" 2 (Relation.cardinality r);
  check_bool "mem" true (Relation.mem r (Tuple.of_list [ 2; 1 ]));
  check_bool "add duplicate" false (Relation.add r (Tuple.of_list [ 1; 2 ]));
  check_bool "add new" true (Relation.add r (Tuple.of_list [ 3; 3 ]));
  check_int "after add" 3 (Relation.cardinality r)

let test_relation_arity_mismatch () =
  let r = Relation.create (Schema.of_list [ 0; 1 ]) in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Relation.add: tuple arity 3, schema arity 2") (fun () ->
      ignore (Relation.add r (Tuple.of_list [ 1; 2; 3 ])))

let test_relation_reorder () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let swapped = Relation.reorder r (Schema.of_list [ 1; 0 ]) in
  check_rows "columns swapped" [ [ 2; 1 ]; [ 4; 3 ] ] swapped;
  check_bool "equal modulo order" true (Relation.equal_modulo_order r swapped);
  check_bool "not strictly equal" false (Relation.equal r swapped)

let test_relation_equal_modulo_order_differs () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ] ] in
  let s = relation [ 1; 0 ] [ [ 1; 2 ] ] in
  (* Same rows but under swapped column names: v0=1,v1=2 vs v1=1,v0=2. *)
  check_bool "different contents detected" false (Relation.equal_modulo_order r s)

(* ------------------------------------------------------------------ *)
(* Ops: joins                                                          *)

let test_natural_join_basic () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 2; 3 ] ] in
  let s = relation [ 1; 2 ] [ [ 2; 9 ]; [ 3; 8 ]; [ 7; 7 ] ] in
  let j = Ops.natural_join r s in
  Alcotest.(check (list int)) "output schema" [ 0; 1; 2 ]
    (Schema.attrs (Relation.schema j));
  check_rows "join rows" [ [ 1; 2; 9 ]; [ 2; 3; 8 ] ] j

let test_natural_join_no_shared_is_product () =
  let r = relation [ 0 ] [ [ 1 ]; [ 2 ] ] in
  let s = relation [ 1 ] [ [ 5 ]; [ 6 ] ] in
  check_int "product size" 4 (Relation.cardinality (Ops.natural_join r s));
  check_int "explicit product" 4 (Relation.cardinality (Ops.product r s))

let test_product_rejects_shared () =
  let r = relation [ 0 ] [ [ 1 ] ] in
  Alcotest.check_raises "shared attr"
    (Invalid_argument "Ops.product: schemas intersect") (fun () ->
      ignore (Ops.product r r))

let test_join_empty () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ] ] in
  let empty = Relation.create (Schema.of_list [ 1; 2 ]) in
  check_int "join with empty" 0 (Relation.cardinality (Ops.natural_join r empty))

let test_equijoin () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 2; 3 ] ] in
  let s = relation [ 2; 3 ] [ [ 2; 9 ]; [ 1; 8 ] ] in
  let j = Ops.equijoin ~on:[ (1, 2) ] r s in
  check_rows "equijoin keeps both columns" [ [ 1; 2; 2; 9 ] ] j;
  check_int "empty on = product" 4
    (Relation.cardinality (Ops.equijoin ~on:[] r s))

(* Join properties against small random relations. *)
let small_relation_arbitrary schema_attrs =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 20)
        (list_repeat (List.length schema_attrs) (int_range 0 3))
      >>= fun rows -> return (relation schema_attrs rows))
  in
  QCheck.make
    ~print:(fun r -> Format.asprintf "%a" (Relation.pp ()) r)
    gen

let prop_join_commutative =
  qtest "join commutative (modulo column order)"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 1; 2 ]))
    (fun (r, s) ->
      Relation.equal_modulo_order (Ops.natural_join r s) (Ops.natural_join s r))

let prop_join_associative =
  qtest "join associative"
    (QCheck.triple
       (small_relation_arbitrary [ 0; 1 ])
       (small_relation_arbitrary [ 1; 2 ])
       (small_relation_arbitrary [ 2; 3 ]))
    (fun (r, s, t) ->
      Relation.equal_modulo_order
        (Ops.natural_join (Ops.natural_join r s) t)
        (Ops.natural_join r (Ops.natural_join s t)))

let prop_join_idempotent =
  qtest "r |><| r = r" (small_relation_arbitrary [ 0; 1 ]) (fun r ->
      Relation.equal_modulo_order (Ops.natural_join r r) r)

let prop_semijoin_is_filtered_join =
  qtest "semijoin = projection of join"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 1; 2 ]))
    (fun (r, s) ->
      let lhs = Ops.semijoin r s in
      let rhs = Ops.project (Ops.natural_join r s) (Relation.schema r) in
      Relation.equal_modulo_order lhs rhs)

let prop_semijoin_antijoin_partition =
  qtest "semijoin + antijoin partition r"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 1; 2 ]))
    (fun (r, s) ->
      let semi = Ops.semijoin r s and anti = Ops.antijoin r s in
      Relation.cardinality semi + Relation.cardinality anti
      = Relation.cardinality r
      && Relation.equal_modulo_order (Ops.union semi anti) r)

(* ------------------------------------------------------------------ *)
(* Ops: projection, selection, set ops                                 *)

let test_project () =
  let r = relation [ 0; 1; 2 ] [ [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ 5; 6; 7 ] ] in
  let p = Ops.project r (Schema.of_list [ 1; 0 ]) in
  check_rows "projection dedups" [ [ 2; 1 ]; [ 6; 5 ] ] p

let test_project_away () =
  let r = relation [ 0; 1; 2 ] [ [ 1; 2; 3 ] ] in
  let p = Ops.project_away r [ 1; 99 ] in
  Alcotest.(check (list int)) "kept attrs" [ 0; 2 ]
    (Schema.attrs (Relation.schema p));
  check_rows "kept values" [ [ 1; 3 ] ] p

let test_select () =
  let r = relation [ 0; 1 ] [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 2 ] ] in
  check_rows "select_eq" [ [ 1; 1 ]; [ 1; 2 ] ] (Ops.select_eq r 0 1);
  check_rows "select_attr_eq" [ [ 1; 1 ]; [ 2; 2 ] ] (Ops.select_attr_eq r 0 1)

let test_rename () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ] ] in
  let renamed = Ops.rename r [ (0, 10); (1, 0) ] in
  Alcotest.(check (list int)) "simultaneous rename" [ 10; 0 ]
    (Schema.attrs (Relation.schema renamed));
  check_rows "tuples preserved" [ [ 1; 2 ] ] renamed

let test_set_operations () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let s = relation [ 1; 0 ] [ [ 2; 1 ]; [ 5; 6 ] ] in
  (* s's rows, aligned to r's schema: (1,2) and (6,5). *)
  check_rows "union aligns schemas" [ [ 1; 2 ]; [ 3; 4 ]; [ 6; 5 ] ] (Ops.union r s);
  check_rows "inter" [ [ 1; 2 ] ] (Ops.inter r s);
  check_rows "diff" [ [ 3; 4 ] ] (Ops.diff r s);
  Alcotest.check_raises "incompatible union"
    (Invalid_argument "Ops.union: schemas are not permutations of each other")
    (fun () -> ignore (Ops.union r (relation [ 0; 2 ] [])))

let prop_projection_monotone =
  qtest "projection never grows cardinality" (small_relation_arbitrary [ 0; 1 ])
    (fun r ->
      Relation.cardinality (Ops.project r (Schema.of_list [ 0 ]))
      <= Relation.cardinality r)

let prop_select_project_commute =
  qtest "selection commutes with projection on kept attrs"
    (small_relation_arbitrary [ 0; 1 ]) (fun r ->
      let keep = Schema.of_list [ 0 ] in
      Relation.equal_modulo_order
        (Ops.project (Ops.select_eq r 0 1) keep)
        (Ops.select_eq (Ops.project r keep) 0 1))

let prop_equijoin_is_renamed_natural_join =
  qtest "equijoin = natural join after aligning names"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 2; 3 ]))
    (fun (r, s) ->
      (* Join r.1 = s.2 explicitly, vs renaming s.2 to 1 and joining
         naturally (then renaming back and reordering). *)
      let explicit = Ops.equijoin ~on:[ (1, 2) ] r s in
      let renamed = Ops.rename s [ (2, 1) ] in
      let natural = Ops.natural_join r renamed in
      (* The natural join merges the join column; the equijoin keeps
         both copies. Compare on the merged view. *)
      let merged_view =
        Ops.project explicit (Schema.of_list [ 0; 1; 3 ])
      in
      Relation.equal_modulo_order merged_view natural)

let prop_rename_roundtrip =
  qtest "rename there and back is the identity"
    (small_relation_arbitrary [ 0; 1 ]) (fun r ->
      Relation.equal r (Ops.rename (Ops.rename r [ (0, 7); (1, 8) ]) [ (7, 0); (8, 1) ]))

let prop_union_laws =
  qtest "union is commutative, associative, idempotent"
    (QCheck.triple
       (small_relation_arbitrary [ 0; 1 ])
       (small_relation_arbitrary [ 0; 1 ])
       (small_relation_arbitrary [ 0; 1 ]))
    (fun (a, b, c) ->
      Relation.equal_modulo_order (Ops.union a b) (Ops.union b a)
      && Relation.equal_modulo_order
           (Ops.union (Ops.union a b) c)
           (Ops.union a (Ops.union b c))
      && Relation.equal_modulo_order (Ops.union a a) a)

let prop_inter_via_diff =
  qtest "a /\\ b = a \\ (a \\ b)"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (small_relation_arbitrary [ 0; 1 ]))
    (fun (a, b) ->
      Relation.equal_modulo_order (Ops.inter a b) (Ops.diff a (Ops.diff a b)))

let prop_project_composition =
  qtest "projection composes" (small_relation_arbitrary [ 0; 1; 2 ]) (fun r ->
      Relation.equal
        (Ops.project (Ops.project r (Schema.of_list [ 0; 1 ])) (Schema.of_list [ 0 ]))
        (Ops.project r (Schema.of_list [ 0 ])))

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

let test_aggregate_counts () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ] in
  check_int "count" 3 (Relalg.Aggregate.count r);
  check_int "distinct first column" 2 (Relalg.Aggregate.count_distinct r 0);
  check_int "distinct second column" 2 (Relalg.Aggregate.count_distinct r 1);
  Alcotest.(check (list (pair (list int) int)))
    "group count"
    [ ([ 1 ], 2); ([ 2 ], 1) ]
    (List.map
       (fun (t, n) -> (Tuple.to_list t, n))
       (Relalg.Aggregate.group_count r (Schema.of_list [ 0 ])))

let test_aggregate_extremes () =
  let r = relation [ 0 ] [ [ 5 ]; [ 2 ]; [ 9 ] ] in
  Alcotest.(check (option int)) "min" (Some 2) (Relalg.Aggregate.min_value r 0);
  Alcotest.(check (option int)) "max" (Some 9) (Relalg.Aggregate.max_value r 0);
  let empty = relation [ 0 ] [] in
  Alcotest.(check (option int)) "empty min" None (Relalg.Aggregate.min_value empty 0)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let test_io_roundtrip () =
  let r = relation [ 3; 1; 7 ] [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] in
  let back = Relalg.Io.of_string (Relalg.Io.to_string r) in
  check_bool "identical" true (Relation.equal r back)

let prop_io_roundtrip =
  qtest "to_string/of_string round trip" (small_relation_arbitrary [ 0; 1 ])
    (fun r -> Relation.equal r (Relalg.Io.of_string (Relalg.Io.to_string r)))

let test_io_zero_ary () =
  let t = Relation.create Relalg.Schema.empty in
  ignore (Relation.add t (Tuple.of_list []));
  let back = Relalg.Io.of_string (Relalg.Io.to_string t) in
  check_int "0-ary tuple survives" 1 (Relation.cardinality back);
  check_int "arity" 0 (Relation.arity back)

let test_io_file_roundtrip () =
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let path = Filename.temp_file "relalg" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Relalg.Io.save path r;
      check_bool "file round trip" true (Relation.equal r (Relalg.Io.load path)))

let prop_io_corruption_fails_cleanly =
  (* Fuzz: flip one byte of a serialized relation; the loader either
     still parses (the flip hit a digit) or fails with a diagnostic —
     never any other exception. *)
  qtest ~count:100 "corrupted input fails cleanly"
    (QCheck.pair (small_relation_arbitrary [ 0; 1 ]) (QCheck.int_range 0 10_000))
    (fun (r, seed) ->
      let text = Relalg.Io.to_string r in
      if String.length text = 0 then true
      else begin
        let rng = rng seed in
        let bytes = Bytes.of_string text in
        let pos = Graphlib.Rng.int rng (Bytes.length bytes) in
        Bytes.set bytes pos (Char.chr (32 + Graphlib.Rng.int rng 95));
        match Relalg.Io.of_string (Bytes.to_string bytes) with
        | _ -> true
        | exception (Failure _ | Invalid_argument _) -> true
      end)

let test_io_rejects_garbage () =
  Alcotest.check_raises "bad header" (Failure "Io: malformed header: \"a\\tb\"")
    (fun () -> ignore (Relalg.Io.of_string "a\tb\n1\t2\n"));
  Alcotest.check_raises "bad row" (Failure "Io: malformed row: \"1\\tx\"")
    (fun () -> ignore (Relalg.Io.of_string "0\t1\n1\tx\n"))

(* ------------------------------------------------------------------ *)
(* Limits and stats                                                    *)

let test_limits_cardinality () =
  let limits = Relalg.Limits.create ~max_tuples:3 ~max_total:1000 () in
  let r = relation [ 0 ] [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  let s = relation [ 1 ] [ [ 1 ] ] in
  Alcotest.check_raises "per-relation cap"
    (Relalg.Limits.Abort (Relalg.Limits.Cardinality 4)) (fun () ->
      ignore (Ops.natural_join ~ctx:(Relalg.Ctx.create ~limits ()) r s))

let test_limits_total () =
  let limits = Relalg.Limits.create ~max_tuples:1000 ~max_total:5 () in
  let r = relation [ 0 ] [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let s = relation [ 1 ] [ [ 1 ]; [ 2 ] ] in
  Alcotest.check_raises "total budget"
    (Relalg.Limits.Abort Relalg.Limits.Tuple_budget) (fun () ->
      ignore (Ops.natural_join ~ctx:(Relalg.Ctx.create ~limits ()) r s))

let test_stats_recording () =
  let stats = Relalg.Stats.create () in
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 2; 3 ] ] in
  let s = relation [ 1; 2 ] [ [ 2; 9 ] ] in
  let ctx = Relalg.Ctx.create ~stats () in
  let j = Ops.natural_join ~ctx r s in
  ignore (Ops.project ~ctx j (Schema.of_list [ 0 ]));
  check_int "joins" 1 (Relalg.Stats.joins stats);
  check_int "projections" 1 (Relalg.Stats.projections stats);
  check_int "max arity" 3 (Relalg.Stats.max_arity stats);
  check_int "produced" 2 (Relalg.Stats.tuples_produced stats);
  Relalg.Stats.reset stats;
  check_int "reset" 0 (Relalg.Stats.max_arity stats)

(* ------------------------------------------------------------------ *)
(* Arena: the relations' tuple store, exercised directly at its
   edge cases (degenerate arities and enough rows to force both data
   growth and index rehashes).                                          *)

module Arena = Relalg.Arena

let test_arena_zero_ary () =
  let a = Arena.create 0 in
  check_bool "first add" true (Arena.add a [||]);
  check_bool "duplicate" false (Arena.add a [||]);
  check_int "one row" 1 (Arena.count a);
  check_bool "mem" true (Arena.mem a [||]);
  check_bool "wrong arity" false (Arena.mem a [| 1 |])

let test_arena_wide_rows () =
  (* Arity past any small-tuple fast path. *)
  let arity = 20 in
  let a = Arena.create arity in
  let row k = Array.init arity (fun j -> (k * 31) + j) in
  for k = 0 to 99 do
    check_bool "fresh row" true (Arena.add a (row k))
  done;
  for k = 0 to 99 do
    check_bool "duplicate row" false (Arena.add a (row k))
  done;
  check_int "count" 100 (Arena.count a);
  check_bool "mem wide" true (Arena.mem a (row 57));
  Alcotest.(check (list int)) "read back" (Array.to_list (row 42))
    (Array.to_list (Arena.read a 42))

let test_arena_many_rows () =
  (* > 64k distinct rows: the data array grows and the open-addressing
     index rehashes several times; dedup must survive both. *)
  let n = 70_000 in
  let a = Arena.create ~size_hint:16 2 in
  for k = 0 to n - 1 do
    ignore (Arena.add a [| k; k * 7 |])
  done;
  check_int "all distinct" n (Arena.count a);
  for k = 0 to n - 1 do
    if Arena.add a [| k; k * 7 |] then
      Alcotest.failf "row %d re-inserted after rehash" k
  done;
  check_int "still deduped" n (Arena.count a);
  check_bool "mem early" true (Arena.mem a [| 0; 0 |]);
  check_bool "mem late" true (Arena.mem a [| n - 1; (n - 1) * 7 |]);
  check_bool "absent" false (Arena.mem a [| n; n * 7 |]);
  let sum = Arena.fold (fun row acc -> acc + row.(0)) a 0 in
  check_int "fold visits every row" (n * (n - 1) / 2) sum

let test_arena_staged_commit () =
  let a = Arena.create 3 in
  let base = Arena.stage a in
  let data = Arena.data a in
  data.(base) <- 1;
  data.(base + 1) <- 2;
  data.(base + 2) <- 3;
  check_bool "committed" true (Arena.commit_staged a);
  let base = Arena.stage a in
  let data = Arena.data a in
  data.(base) <- 1;
  data.(base + 1) <- 2;
  data.(base + 2) <- 3;
  check_bool "staged duplicate dropped" false (Arena.commit_staged a);
  check_int "count" 1 (Arena.count a);
  check_bool "mem" true (Arena.mem a [| 1; 2; 3 |])

(* Append-only commits: rows that skip the dedup probe are indexed
   lazily, from a watermark, by the next [add]/[mem]/[commit_staged]. *)

let append_row a row =
  let base = Arena.stage a in
  Array.blit row 0 (Arena.data a) base (Array.length row);
  Arena.append_staged a

let stage_row a row =
  let base = Arena.stage a in
  Array.blit row 0 (Arena.data a) base (Array.length row)

let appended_arena n =
  let a = Arena.create ~size_hint:16 2 in
  for k = 0 to n - 1 do
    append_row a [| k; 3 * k |]
  done;
  a

let test_arena_append_then_dedup () =
  (* [add] and [commit_staged] as the first index-touching call each. *)
  let a = appended_arena 100 in
  check_bool "add of an appended row" false (Arena.add a [| 57; 171 |]);
  check_int "add left count alone" 100 (Arena.count a);
  let b = appended_arena 100 in
  stage_row b [| 99; 297 |];
  check_bool "commit of an appended row" false (Arena.commit_staged b);
  check_int "commit left count alone" 100 (Arena.count b);
  (* Appends after the index exists sit past the watermark. *)
  for k = 100 to 199 do
    append_row b [| k; 3 * k |]
  done;
  check_bool "add past the watermark" false (Arena.add b [| 150; 450 |]);
  stage_row b [| 199; 597 |];
  check_bool "commit past the watermark" false (Arena.commit_staged b);
  check_bool "fresh row still lands" true (Arena.add b [| 200; 600 |]);
  check_int "count" 201 (Arena.count b)

let test_arena_copy_partly_indexed () =
  let a = appended_arena 100 in
  (* [mem] as the first index-touching call. *)
  check_bool "mem first row" true (Arena.mem a [| 0; 0 |]);
  check_bool "mem last row" true (Arena.mem a [| 99; 297 |]);
  for k = 100 to 199 do
    append_row a [| k; 3 * k |]
  done;
  let c = Arena.copy a in
  List.iter
    (fun arena ->
      check_bool "mem indexed half" true (Arena.mem arena [| 5; 15 |]);
      check_bool "mem appended half" true (Arena.mem arena [| 180; 540 |]);
      check_bool "absent" false (Arena.mem arena [| 180; 541 |]);
      check_bool "duplicate add" false (Arena.add arena [| 120; 360 |]))
    [ c; a ];
  check_bool "new row in the copy" true (Arena.add c [| -1; -1 |]);
  check_int "copy grew" 201 (Arena.count c);
  check_int "original untouched" 200 (Arena.count a);
  check_bool "original lacks it" false (Arena.mem a [| -1; -1 |])

let test_arena_append_zero_ary () =
  let a = Arena.create 0 in
  ignore (Arena.stage a);
  Arena.append_staged a;
  check_int "one row" 1 (Arena.count a);
  ignore (Arena.stage a);
  check_bool "commit of the empty tuple" false (Arena.commit_staged a);
  check_bool "add of the empty tuple" false (Arena.add a [||]);
  check_bool "mem" true (Arena.mem a [||]);
  check_int "still one row" 1 (Arena.count a)

let test_arena_append_many_rows () =
  (* Past 64k appended rows the data array has grown many times; the
     index is then built in one catch-up and must hold every row. *)
  let n = 70_000 in
  let a = appended_arena n in
  check_int "all appended" n (Arena.count a);
  for k = 0 to n - 1 do
    if Arena.add a [| k; 3 * k |] then
      Alcotest.failf "appended row %d re-inserted" k
  done;
  check_int "still n rows" n (Arena.count a);
  check_bool "mem early" true (Arena.mem a [| 0; 0 |]);
  check_bool "mem late" true (Arena.mem a [| n - 1; 3 * (n - 1) |]);
  check_bool "absent" false (Arena.mem a [| n; 3 * n |])

(* A relation in a shared database is probed by several domains at once;
   [Database.add] must leave nothing for [mem] to write. The relation
   comes from a join, so its 100k rows were appended unindexed, and the
   domains start probing together so a lagging index would be built by
   all of them at once. *)
let test_arena_shared_database_mem () =
  let r = relation [ 0; 1 ] (List.init 1000 (fun k -> [ k; k mod 10 ])) in
  let s = relation [ 1; 2 ] (List.init 1000 (fun k -> [ k mod 10; k ])) in
  let db = Conjunctive.Database.create () in
  Conjunctive.Database.add db "j" (Ops.natural_join r s);
  let shared = Conjunctive.Database.find db "j" in
  let probes =
    Array.init 4000 (fun i -> [| i mod 1001; i mod 11; (i * 7) mod 1001 |])
  in
  let expected =
    Array.map
      (fun p ->
        p.(0) < 1000 && p.(1) = p.(0) mod 10 && p.(2) < 1000
        && p.(2) mod 10 = p.(1))
      probes
  in
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    Array.for_all2 (fun p want -> Relation.mem shared p = want) probes expected
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iteri
    (fun i d ->
      check_bool (Printf.sprintf "domain %d agrees" i) true (Domain.join d))
    domains

(* ------------------------------------------------------------------ *)
(* Cursor: the pull-based answer stream                                *)

module Cursor = Relalg.Cursor

let tup = Tuple.of_list
let s2 = Schema.of_list [ 0; 1 ]

let test_cursor_of_seq_basics () =
  let c = Cursor.of_seq ~schema:s2 (List.to_seq [ tup [ 1; 2 ]; tup [ 3; 4 ] ]) in
  check_bool "schema kept" true (Cursor.schema c = s2);
  check_bool "not closed while pending" false (Cursor.closed c);
  Alcotest.(check (option (list int))) "first" (Some [ 1; 2 ])
    (Option.map Tuple.to_list (Cursor.next c));
  Alcotest.(check (option (list int))) "second" (Some [ 3; 4 ])
    (Option.map Tuple.to_list (Cursor.next c));
  Alcotest.(check (option (list int))) "exhausted" None
    (Option.map Tuple.to_list (Cursor.next c));
  check_bool "closes itself at exhaustion" true (Cursor.closed c);
  Alcotest.(check (option (list int))) "stays exhausted" None
    (Option.map Tuple.to_list (Cursor.next c));
  check_int "yielded counts handed-out tuples" 2 (Cursor.yielded c)

let test_cursor_of_iter_is_lazy () =
  (* The producer must not run before the first pull, and must suspend
     between emissions rather than running ahead. *)
  let emitted = ref 0 in
  let produce emit =
    List.iter
      (fun r ->
        incr emitted;
        emit (tup r))
      [ [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ] ]
  in
  let c = Cursor.of_iter ~schema:s2 produce in
  check_int "producer has not started" 0 !emitted;
  ignore (Cursor.next c);
  check_int "suspended after the first emission" 1 !emitted;
  ignore (Cursor.next c);
  check_int "resumed exactly once per pull" 2 !emitted;
  Cursor.close c;
  check_int "abandoning the cursor abandons the fiber" 2 !emitted;
  Alcotest.(check (option (list int))) "closed cursor yields nothing" None
    (Option.map Tuple.to_list (Cursor.next c))

let test_cursor_dedup_first_seen_order () =
  let rows = [ [ 2; 2 ]; [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ]; [ 1; 1 ] ] in
  let c =
    Cursor.of_seq ~dedup:true ~schema:s2 (List.to_seq (List.map tup rows))
  in
  let got = List.map Tuple.to_list (Cursor.take c 10) in
  Alcotest.(check (list (list int))) "distinct, first-seen order"
    [ [ 2; 2 ]; [ 1; 1 ]; [ 3; 3 ] ]
    got

let test_cursor_take_paginates () =
  let rows = List.init 5 (fun i -> [ i; i ]) in
  let c = Cursor.of_seq ~schema:s2 (List.to_seq (List.map tup rows)) in
  Alcotest.(check (list (list int))) "first page" [ [ 0; 0 ]; [ 1; 1 ] ]
    (List.map Tuple.to_list (Cursor.take c 2));
  check_bool "cursor survives a full page" false (Cursor.closed c);
  Alcotest.(check (list (list int))) "second page continues" [ [ 2; 2 ]; [ 3; 3 ] ]
    (List.map Tuple.to_list (Cursor.take c 2));
  Alcotest.(check (list (list int))) "short last page" [ [ 4; 4 ] ]
    (List.map Tuple.to_list (Cursor.take c 2));
  check_bool "exhaustion closes" true (Cursor.closed c);
  Alcotest.(check (list (list int))) "empty page after the end" []
    (List.map Tuple.to_list (Cursor.take c 2))

let test_cursor_close_runs_hook_once () =
  let closes = ref 0 in
  let c =
    Cursor.of_seq ~on_close:(fun () -> incr closes) ~schema:s2
      (List.to_seq [ tup [ 1; 2 ] ])
  in
  Cursor.close c;
  Cursor.close c;
  check_int "hook runs once" 1 !closes;
  (* exhaustion also runs the hook exactly once *)
  let closes' = ref 0 in
  let c' =
    Cursor.of_seq ~on_close:(fun () -> incr closes') ~schema:s2
      (List.to_seq [ tup [ 1; 2 ] ])
  in
  Cursor.iter (fun _ -> ()) c';
  Cursor.close c';
  check_int "exhaustion counts as the close" 1 !closes'

let test_cursor_to_relation_roundtrip () =
  let rows = [ [ 1; 2 ]; [ 3; 4 ]; [ 1; 2 ] ] in
  let c =
    Cursor.of_seq ~dedup:true ~schema:s2 (List.to_seq (List.map tup rows))
  in
  let rel = Cursor.to_relation c in
  check_bool "schema carried over" true (Relation.schema rel = s2);
  check_rows "distinct rows materialized" [ [ 1; 2 ]; [ 3; 4 ] ] rel;
  check_bool "drain closes" true (Cursor.closed c)

let test_cursor_top_k () =
  let rows = [ [ 5; 0 ]; [ 1; 0 ]; [ 4; 0 ]; [ 2; 0 ]; [ 3; 0 ] ] in
  let c = Cursor.of_seq ~schema:s2 (List.to_seq (List.map tup rows)) in
  let top = Cursor.top_k ~compare:Tuple.compare c 3 in
  Alcotest.(check (list (list int))) "k least, ascending"
    [ [ 1; 0 ]; [ 2; 0 ]; [ 3; 0 ] ]
    (List.map Tuple.to_list top);
  (* k larger than the stream degrades to a full sort *)
  let c' = Cursor.of_seq ~schema:s2 (List.to_seq (List.map tup rows)) in
  check_int "k past the end returns everything" 5
    (List.length (Cursor.top_k ~compare:Tuple.compare c' 10))

let test_cursor_producer_exception_closes () =
  let closes = ref 0 in
  let produce emit =
    emit (tup [ 1; 1 ]);
    failwith "producer blew up"
  in
  let c =
    Cursor.of_iter ~on_close:(fun () -> incr closes) ~schema:s2 produce
  in
  Alcotest.(check (option (list int))) "first tuple fine" (Some [ 1; 1 ])
    (Option.map Tuple.to_list (Cursor.next c));
  (match Cursor.next c with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the producer exception to propagate");
  check_bool "cursor closed before raising" true (Cursor.closed c);
  check_int "close hook ran" 1 !closes

let cursor_suite =
  ( "cursor",
    [
      Alcotest.test_case "of_seq basics" `Quick test_cursor_of_seq_basics;
      Alcotest.test_case "of_iter is lazy" `Quick test_cursor_of_iter_is_lazy;
      Alcotest.test_case "dedup keeps first-seen order" `Quick
        test_cursor_dedup_first_seen_order;
      Alcotest.test_case "take paginates" `Quick test_cursor_take_paginates;
      Alcotest.test_case "close hook runs once" `Quick
        test_cursor_close_runs_hook_once;
      Alcotest.test_case "to_relation roundtrip" `Quick
        test_cursor_to_relation_roundtrip;
      Alcotest.test_case "top_k" `Quick test_cursor_top_k;
      Alcotest.test_case "producer exception closes" `Quick
        test_cursor_producer_exception_closes;
    ] )

(* ------------------------------------------------------------------ *)
(* Reference: each operator against the list-based nested-loop
   {!Helpers.Ref}, which shares no code with [Ops].                     *)

(* Schema pairs sharing one attribute, two attributes in swapped column
   order, or none (a product); [union] takes permuted schemas. *)
let join_schemas =
  [ ([ 0; 1 ], [ 1; 2 ]); ([ 0; 1 ], [ 1; 0 ]); ([ 0 ], [ 1 ]);
    ([ 0; 1; 2 ], [ 2; 0 ]) ]

let union_schemas =
  [ ([ 0; 1 ], [ 1; 0 ]); ([ 0; 1; 2 ], [ 2; 0; 1 ]); ([ 0 ], [ 0 ]) ]

let ref_input_arbitrary schemas =
  let rows attrs =
    QCheck.Gen.(
      list_size (int_range 0 25) (list_repeat (List.length attrs) (int_bound 5)))
  in
  let gen =
    QCheck.Gen.(
      oneofl schemas >>= fun (sa, sb) ->
      pair (rows sa) (rows sb) >|= fun (ra, rb) -> ((sa, ra), (sb, rb)))
  in
  let print_rel (attrs, rows) =
    Printf.sprintf "%s: %s"
      (QCheck.Print.(list int) attrs)
      (QCheck.Print.(list (list int)) rows)
  in
  QCheck.make ~print:(QCheck.Print.pair print_rel print_rel) gen

(* [op] runs on engine relations, [reference] on the same rows as
   lists; the engine result, read in the reference's column order,
   must hold exactly the reference rows. *)
let prop_matches_reference ?(schemas = join_schemas) name op reference =
  qtest ("ops = nested-loop reference: " ^ name) (ref_input_arbitrary schemas)
    (fun (a, b) ->
      let of_ref (attrs, rows) = relation attrs rows in
      let attrs, expected = reference a b in
      let got = op (of_ref a) (of_ref b) in
      Schema.equal_as_set (Relation.schema got) (Schema.of_list attrs)
      && rows_in_order attrs got = expected)

(* Keep the join's last column, then its first. *)
let last_and_first attrs =
  [ List.nth attrs (List.length attrs - 1); List.hd attrs ]

(* The append-only kernels skip the dedup probe, so each must emit a
   set: its cardinality is the reference's distinct row count. The
   equijoin runs on [b] renamed apart (attribute [x] becomes [x + 10]),
   and the generic join projects onto the join's last and first
   attributes, so its free prefixes could repeat if it emitted twice. *)
let prop_kernels_duplicate_free =
  qtest "kernels emit no duplicate rows" (ref_input_arbitrary join_schemas)
    (fun (((sa, ra) as a), ((sb, rb) as b)) ->
      let r = relation sa ra and s = relation sb rb in
      let distinct (_, rows) = List.length rows in
      let card = Relation.cardinality in
      let common = List.filter (fun x -> List.mem x sa) sb in
      let sb' = List.map (fun x -> x + 10) sb in
      let equi_ref =
        let attrs, product = Ref.join a (sb', rb) in
        List.filter
          (fun row ->
            List.for_all
              (fun x -> Ref.value attrs row x = Ref.value attrs row (x + 10))
              common)
          product
      in
      let equi =
        Ops.equijoin
          ~on:(List.map (fun x -> (x, x + 10)) common)
          r (relation sb' rb)
      in
      let joined = Ref.join a b in
      let free = last_and_first (fst joined) in
      let db = Conjunctive.Database.create () in
      Conjunctive.Database.add db "r" r;
      Conjunctive.Database.add db "s" s;
      let cq =
        Conjunctive.Cq.make ~free
          ~atoms:
            [ { Conjunctive.Cq.rel = "r"; vars = sa }; { rel = "s"; vars = sb } ]
      in
      card (Ops.natural_join r s) = distinct joined
      && card (Ops.semijoin r s) = distinct (Ref.semijoin a b)
      && card (Ops.antijoin r s) = distinct (Ref.antijoin a b)
      && card equi = List.length equi_ref
      && card (Wcoj.evaluate db cq) = distinct (Ref.project joined free))

let reference_suite =
  ( "reference",
    [
      prop_matches_reference "natural join" (fun r s -> Ops.natural_join r s)
        Ref.join;
      prop_matches_reference "project of a join"
        (fun r s ->
          let joined = Ops.natural_join r s in
          Ops.project joined
            (Schema.of_list (last_and_first (Schema.attrs (Relation.schema joined)))))
        (fun a b ->
          let joined = Ref.join a b in
          Ref.project joined (last_and_first (fst joined)));
      prop_matches_reference "semijoin" (fun r s -> Ops.semijoin r s)
        Ref.semijoin;
      prop_matches_reference "antijoin" (fun r s -> Ops.antijoin r s)
        Ref.antijoin;
      prop_matches_reference ~schemas:union_schemas "union"
        (fun r s -> Ops.union r s)
        Ref.union;
      prop_kernels_duplicate_free;
    ] )

let () =
  Alcotest.run "relalg"
    ([
      ( "symbol",
        [
          Alcotest.test_case "roundtrip" `Quick test_symbol_roundtrip;
          Alcotest.test_case "growth" `Quick test_symbol_growth;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "project/concat" `Quick test_tuple_project_concat;
          prop_tuple_hash_consistent;
          prop_tuple_compare_total;
        ] );
      ( "schema",
        [
          Alcotest.test_case "construction" `Quick test_schema_construction;
          Alcotest.test_case "set operations" `Quick test_schema_set_operations;
          Alcotest.test_case "positions" `Quick test_schema_positions;
        ] );
      ( "relation",
        [
          Alcotest.test_case "set semantics" `Quick test_relation_set_semantics;
          Alcotest.test_case "arity mismatch" `Quick test_relation_arity_mismatch;
          Alcotest.test_case "reorder" `Quick test_relation_reorder;
          Alcotest.test_case "equal modulo order" `Quick
            test_relation_equal_modulo_order_differs;
        ] );
      ( "joins",
        [
          Alcotest.test_case "natural join" `Quick test_natural_join_basic;
          Alcotest.test_case "disjoint join is product" `Quick
            test_natural_join_no_shared_is_product;
          Alcotest.test_case "product rejects shared" `Quick
            test_product_rejects_shared;
          Alcotest.test_case "join with empty" `Quick test_join_empty;
          Alcotest.test_case "equijoin" `Quick test_equijoin;
          prop_join_commutative;
          prop_join_associative;
          prop_join_idempotent;
          prop_semijoin_is_filtered_join;
          prop_semijoin_antijoin_partition;
          prop_equijoin_is_renamed_natural_join;
        ] );
      ( "unary ops",
        [
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "project away" `Quick test_project_away;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "set operations" `Quick test_set_operations;
          prop_projection_monotone;
          prop_select_project_commute;
          prop_rename_roundtrip;
          prop_union_laws;
          prop_inter_via_diff;
          prop_project_composition;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "counts" `Quick test_aggregate_counts;
          Alcotest.test_case "extremes" `Quick test_aggregate_extremes;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "round trip" `Quick test_io_roundtrip;
          prop_io_roundtrip;
          Alcotest.test_case "0-ary relation" `Quick test_io_zero_ary;
          Alcotest.test_case "file round trip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_io_rejects_garbage;
          prop_io_corruption_fails_cleanly;
        ] );
      ( "limits & stats",
        [
          Alcotest.test_case "cardinality cap" `Quick test_limits_cardinality;
          Alcotest.test_case "total budget" `Quick test_limits_total;
          Alcotest.test_case "stats recording" `Quick test_stats_recording;
        ] );
    ]
    @ [
        ( "arena",
          [
            Alcotest.test_case "0-ary tuples" `Quick test_arena_zero_ary;
            Alcotest.test_case "wide rows" `Quick test_arena_wide_rows;
            Alcotest.test_case "growth and rehash (70k rows)" `Quick
              test_arena_many_rows;
            Alcotest.test_case "staged commit dedup" `Quick
              test_arena_staged_commit;
            Alcotest.test_case "add/commit of appended rows" `Quick
              test_arena_append_then_dedup;
            Alcotest.test_case "copy of a partly indexed arena" `Quick
              test_arena_copy_partly_indexed;
            Alcotest.test_case "0-ary append" `Quick test_arena_append_zero_ary;
            Alcotest.test_case "append growth (70k rows)" `Quick
              test_arena_append_many_rows;
            Alcotest.test_case "shared database mem, 4 domains" `Quick
              test_arena_shared_database_mem;
          ] );
        cursor_suite;
        reference_suite;
      ])
