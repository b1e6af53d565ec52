(* Shared helpers for the test suites: deterministic instance generators,
   QCheck arbitraries, and independent brute-force oracles that don't go
   through any of the code under test. *)

module G = Graphlib.Graph

let rng seed = Graphlib.Rng.make seed

(* ------------------------------------------------------------------ *)
(* Independent oracles.                                                *)

(* 3-colorability by backtracking directly on the graph — shares no code
   with the relational engine, the planners, or the CSP solver. *)
let brute_force_colorable ?(colors = 3) g =
  let n = G.order g in
  let assignment = Array.make (max n 1) 0 in
  let ok v c =
    G.Iset.for_all
      (fun w -> w >= v || assignment.(w) <> c)
      (G.neighbors g v)
  in
  let rec color v =
    v >= n
    || List.exists
         (fun c ->
           ok v c
           && (assignment.(v) <- c;
               color (v + 1)))
         (List.init colors (fun c -> c + 1))
  in
  color 0

(* All proper colorings of the graph restricted to the given variables,
   as sorted value lists — an oracle for non-Boolean query answers. *)
let all_colorings ?(colors = 3) g ~keep =
  let n = G.order g in
  let assignment = Array.make (max n 1) 0 in
  let results = ref [] in
  let ok v c =
    G.Iset.for_all (fun w -> w >= v || assignment.(w) <> c) (G.neighbors g v)
  in
  let rec color v =
    if v >= n then
      results := List.map (fun u -> assignment.(u)) keep :: !results
    else
      List.iter
        (fun c ->
          if ok v c then begin
            assignment.(v) <- c;
            color (v + 1)
          end)
        (List.init colors (fun c -> c + 1))
  in
  color 0;
  List.sort_uniq Stdlib.compare !results

(* Every answer of a conjunctive query, by enumerating assignments of
   its variables over the database's active domain: one row per
   satisfying assignment restricted to [cq.free] (in that order), sorted
   and deduplicated. Reads base relations only through
   [Database.find]/[Relation.iter] — no atom evaluation, join or
   decomposition code — so it is an oracle for every route. *)
let brute_force_cq db cq =
  let module Cq = Conjunctive.Cq in
  let module Db = Conjunctive.Database in
  let rows name =
    let acc = ref [] in
    Relalg.Relation.iter
      (fun tup -> acc := Relalg.Tuple.to_list tup :: !acc)
      (Db.find db name);
    !acc
  in
  let base = List.map (fun name -> (name, rows name)) (Db.names db) in
  let domain =
    List.sort_uniq compare
      (List.concat_map (fun (_, rs) -> List.concat rs) base)
  in
  let vars = Array.of_list (Cq.vars cq) in
  let value = Hashtbl.create 16 in
  let holds a =
    List.mem
      (List.map (Hashtbl.find value) a.Cq.vars)
      (List.assoc a.Cq.rel base)
  in
  let results = ref [] in
  let rec assign i =
    if i = Array.length vars then begin
      if List.for_all holds cq.Cq.atoms then
        results := List.map (Hashtbl.find value) cq.Cq.free :: !results
    end
    else
      List.iter
        (fun d ->
          Hashtbl.replace value vars.(i) d;
          assign (i + 1))
        domain
  in
  assign 0;
  List.sort_uniq compare !results

(* A relation's rows with columns read in [cols] order (engines may
   order answer columns differently from the head), sorted and
   deduplicated — comparable with {!brute_force_cq}. *)
let rows_in_order cols rel =
  let schema = Relalg.Relation.schema rel in
  let column v = Relalg.Schema.index schema v in
  List.sort_uniq compare
    (List.map
       (fun tup -> List.map (fun v -> Relalg.Tuple.get tup (column v)) cols)
       (Relalg.Relation.to_sorted_list rel))

(* ------------------------------------------------------------------ *)
(* Instance generators.                                                *)

let random_graph ~seed ~n ~m = Graphlib.Generators.random ~rng:(rng seed) ~n ~m

(* QCheck arbitrary for small random graphs (2..9 vertices). *)
let graph_arbitrary =
  let gen =
    QCheck.Gen.(
      int_range 2 9 >>= fun n ->
      int_range 1 (max 1 (n * (n - 1) / 2)) >>= fun m ->
      int_range 0 10_000 >>= fun seed ->
      return (random_graph ~seed ~n ~m))
  in
  let print g =
    Format.asprintf "%a" G.pp g
  in
  QCheck.make ~print gen

(* Small graphs whose exact treewidth is still cheap to compute. *)
let tiny_graph_arbitrary =
  let gen =
    QCheck.Gen.(
      int_range 2 7 >>= fun n ->
      int_range 1 (max 1 (n * (n - 1) / 2)) >>= fun m ->
      int_range 0 10_000 >>= fun seed ->
      return (random_graph ~seed ~n ~m))
  in
  QCheck.make ~print:(fun g -> Format.asprintf "%a" G.pp g) gen

let coloring_query ?(mode = Conjunctive.Encode.Boolean) ?seed g =
  let rng = Option.map rng seed in
  Conjunctive.Encode.coloring_query_of_graph ~mode ?rng g

let coloring_db = Conjunctive.Encode.coloring_database ()

(* Relations for engine tests. *)
let relation schema rows =
  Relalg.Relation.of_list (Relalg.Schema.of_list schema) rows

let sorted_rows rel =
  List.map Relalg.Tuple.to_list (Relalg.Relation.to_sorted_list rel)

(* Alcotest shortcuts. *)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_rows msg expected rel =
  Alcotest.(check (list (list int))) msg (List.sort compare expected) (sorted_rows rel)

let qtest ?(count = 100) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary prop)

(* ------------------------------------------------------------------ *)
(* Snapshot corruption.                                                *)

(* Copies of the snapshot file at [path] with one bit flipped in its
   body — everything after the magic and header lines — at the first,
   a middle and the last body byte. *)
let bit_flipped_bodies path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let body = String.index_from s (String.index s '\n' + 1) '\n' + 1 in
  List.map
    (fun i ->
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x10));
      Bytes.to_string b)
    [ body; (body + String.length s - 1) / 2; String.length s - 1 ]

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Storage-backend matrix.                                             *)

(* Run [f] with the process-wide default backend set to [b]; the
   scoped bracket restores the previous default even when [f] raises
   (Alcotest failures unwind through here). *)
let with_backend b f = Relalg.Relation.with_default_backend b f

(* Alcotest's test_case is a public triple, so a finished suite can be
   re-run under each backend by wrapping every body (QCheck properties
   included — their generators and assertions all run inside [f]). *)
let under_backend b (name, speed, f) =
  (name, speed, fun x -> with_backend b (fun () -> f x))

(* Duplicate every suite once per storage backend, prefixing the suite
   names, so the whole test file becomes a backend-equivalence matrix. *)
let backend_matrix suites =
  List.concat_map
    (fun b ->
      let prefix = Relalg.Relation.backend_name b in
      List.map
        (fun (suite, tests) ->
          (prefix ^ ":" ^ suite, List.map (under_backend b) tests))
        suites)
    [ Relalg.Relation.Row; Relalg.Relation.Columnar ]
