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

(* A list-based reference for the relational operators. A relation is
   its attribute list and its rows as int lists; every operator is a
   nested loop over the rows, and results are sorted and deduplicated.
   No [Ops], [Arena] or hash code runs here, so it is an oracle for the
   engine's join, projection and set kernels. *)
module Ref = struct
  type t = int list * int list list

  let value attrs row a =
    let rec go = function
      | x :: xs, v :: vs -> if x = a then v else go (xs, vs)
      | _ -> invalid_arg "Ref.value: attribute absent"
    in
    go (attrs, row)

  let agree (sa, a) (sb, b) =
    List.for_all
      (fun x -> (not (List.mem x sa)) || value sa a x = value sb b x)
      sb

  let join ((sa, ra) : t) ((sb, rb) : t) : t =
    let rest = List.filter (fun x -> not (List.mem x sa)) sb in
    ( sa @ rest,
      List.sort_uniq compare
        (List.concat_map
           (fun a ->
             List.filter_map
               (fun b ->
                 if agree (sa, a) (sb, b) then
                   Some (a @ List.map (value sb b) rest)
                 else None)
               rb)
           ra) )

  let project ((sa, ra) : t) keep : t =
    ( keep,
      List.sort_uniq compare (List.map (fun a -> List.map (value sa a) keep) ra)
    )

  let filter keep ((sa, ra) : t) ((sb, rb) : t) : t =
    ( sa,
      List.sort_uniq compare
        (List.filter
           (fun a -> keep (List.exists (fun b -> agree (sa, a) (sb, b)) rb))
           ra) )

  let semijoin r s = filter Fun.id r s
  let antijoin r s = filter not r s

  let union ((sa, ra) : t) ((sb, rb) : t) : t =
    ( sa,
      List.sort_uniq compare
        (ra @ List.map (fun b -> List.map (value sb b) sa) rb) )
end

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
(* Random multi-relation conjunctive queries, for {!brute_force_cq}.    *)

module Cq = Conjunctive.Cq

(* Force a gate route for the duration of [f]. putenv cannot unset, so
   restoring writes "" — which the gate treats as "decide normally". *)
let with_gate route f =
  Unix.putenv "PPR_GHD_GATE" route;
  Fun.protect ~finally:(fun () -> Unix.putenv "PPR_GHD_GATE" "") f

(* Base relations over the domain {0,1,2}: unary [u], binary [r] and
   [s], ternary [t], and the always-empty binary [e]. *)
let oracle_db (u, r, s, t) =
  let db = Conjunctive.Database.create () in
  let add name arity rows =
    Conjunctive.Database.add db name
      (relation (List.init arity (fun i -> i)) (List.sort_uniq compare rows))
  in
  add "u" 1 u;
  add "r" 2 r;
  add "s" 2 s;
  add "t" 3 t;
  add "e" 2 [];
  db

let arity_of = function "u" -> 1 | "t" -> 3 | _ -> 2

(* A weighted union over query shapes: cycles of binary atoms (cyclic,
   so the decomposition has real bags), stars around a ternary atom,
   atoms with a repeated variable ([t(x,x,y)], [r(x,x)]), shapes that
   touch the empty relation, and free-form mixes of every arity. *)
let oracle_query_gen =
  let open QCheck.Gen in
  let var k = int_range 0 (k - 1) in
  let atom rel vars = { Cq.rel; vars } in
  let random_atom k =
    oneofl [ "u"; "r"; "s"; "t"; "r"; "s" ] >>= fun rel ->
    list_repeat (arity_of rel) (var k) >|= atom rel
  in
  let cycle =
    int_range 3 5 >>= fun k ->
    list_repeat k (oneofl [ "r"; "s" ]) >|= fun rels ->
    List.mapi (fun i rel -> atom rel [ i; (i + 1) mod k ]) rels
  in
  let star =
    int_range 1 3 >>= fun leaves ->
    list_repeat leaves (pair (oneofl [ "r"; "s"; "u" ]) (var 3))
    >|= fun spokes ->
    atom "t" [ 0; 1; 2 ]
    :: List.mapi
         (fun i (rel, hub) ->
           if rel = "u" then atom "u" [ hub ] else atom rel [ hub; 3 + i ])
         spokes
  in
  let repeated =
    int_range 1 3 >>= fun extra ->
    list_repeat extra (random_atom 3) >|= fun rest ->
    atom "t" [ 0; 0; 1 ] :: atom "r" [ 1; 1 ] :: rest
  in
  let with_empty =
    cycle >>= fun base ->
    var 3 >|= fun v -> base @ [ atom "e" [ v; (v + 1) mod 3 ] ]
  in
  let mixed =
    int_range 2 5 >>= fun k ->
    int_range 2 5 >>= fun m -> list_repeat m (random_atom k)
  in
  frequency
    [ (3, cycle); (2, star); (2, repeated); (1, with_empty); (3, mixed) ]
  >>= fun atoms ->
  let vars =
    List.sort_uniq compare (List.concat_map (fun a -> a.Cq.vars) atoms)
  in
  frequency
    [
      (1, return []);
      (2, list_size (int_range 1 (List.length vars)) (oneofl vars)
          >|= List.sort_uniq compare);
    ]
  >|= fun free -> Cq.make ~atoms ~free

let oracle_data_gen =
  let open QCheck.Gen in
  let value = int_range 0 2 in
  let rows arity = list_size (int_range 1 8) (list_repeat arity value) in
  quad (list_size (int_range 1 3) (list_repeat 1 value)) (rows 2) (rows 2)
    (rows 3)

let oracle_arbitrary =
  let print (cq, (u, r, s, t)) =
    let rows name rs =
      Printf.sprintf "%s=%s" name
        (String.concat ";"
           (List.map
              (fun row -> String.concat "," (List.map string_of_int row))
              rs))
    in
    Format.asprintf "%a  %s %s %s %s" Cq.pp cq (rows "u" u) (rows "r" r)
      (rows "s" s) (rows "t" t)
  in
  QCheck.make ~print QCheck.Gen.(pair oracle_query_gen oracle_data_gen)
