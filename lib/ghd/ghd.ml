module Iset = Graphlib.Graph.Iset
module G = Graphlib.Graph
module Hypergraph = Hypergraphs.Hypergraph
module Hypertree = Hypergraphs.Hypertree
module Jointree = Hypergraphs.Jointree
module Yannakakis = Hypergraphs.Yannakakis
module Cq = Conjunctive.Cq
module Relation = Relalg.Relation
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Agm = Wcoj.Agm

type decision = Bucket | Generic | Ghd

let decision_name = function
  | Bucket -> "bucket"
  | Generic -> "generic"
  | Ghd -> "ghd"

type prep = {
  decomposition : Hypertree.t;
  htw : int;
  parent : int array;
  order : int list;
  bag_atoms : int list array;
  var_order : int list;
  agm : Agm.t;
  induced_width : int;
  domain_estimate : int;
  binary_bound_log2 : float;
  ghd_bound_log2 : float;
  decision : decision;
}

(* ------------------------------------------------------------------ *)
(* The GHD search.                                                     *)

(* Width-1 fast path: a GYO join tree IS a width-1 decomposition — each
   hyperedge becomes a bag covered by itself. The join tree of a
   disconnected hypergraph is a forest, so the component roots are
   chained: variables never span components, hence every variable's bags
   stay connected and [Hypertree.is_valid]'s single-tree requirement is
   met. *)
let acyclic_decomposition hg =
  match Jointree.build hg with
  | None -> None
  | Some jt ->
    let m = Hypergraph.edge_count hg in
    let tree = G.create m in
    Array.iteri
      (fun i p -> if p >= 0 then ignore (G.add_edge tree i p))
      jt.Jointree.parent;
    let rec chain = function
      | a :: (b :: _ as rest) ->
        ignore (G.add_edge tree a b);
        chain rest
      | _ -> ()
    in
    chain (Jointree.roots jt);
    let chi = Array.init m (Hypergraph.edge hg) in
    let lambda = Array.init m (fun i -> [ i ]) in
    Some { Hypertree.tree; chi; lambda }

let default_restarts = 3

(* Bounded-width elimination search for the cyclic case: decompose along
   the ordered (MCS) and greedy (min-degree, min-fill) heuristic orders,
   plus rng-seeded MCS restarts, validate each candidate, keep the
   smallest width, and stop as soon as the cyclic optimum (width 2) is
   reached. *)
let cyclic_decomposition ?rng hg =
  let primal, _, of_vertex = Hypergraph.primal_graph hg in
  let heuristics =
    [
      (fun () -> Graphlib.Order.mcs primal);
      (fun () -> Graphlib.Order.min_degree primal);
      (fun () -> Graphlib.Order.min_fill primal);
    ]
    @
    match rng with
    | None -> []
    | Some rng ->
      List.init default_restarts (fun _ () -> Graphlib.Order.mcs ~rng primal)
  in
  let best = ref None in
  let rec go = function
    | [] -> ()
    | mk :: rest ->
      let htd =
        Hypertree.of_tree_decomposition hg
          (Graphlib.Treedec.of_elimination_order primal (mk ()))
          ~of_vertex
      in
      if Hypertree.is_valid hg htd then begin
        let w = Hypertree.width htd in
        (match !best with
        | Some (bw, _) when bw <= w -> ()
        | _ -> best := Some (w, htd))
      end;
      (match !best with
      | Some (2, _) -> () (* a cyclic hypergraph cannot do better *)
      | _ -> go rest)
  in
  go heuristics;
  match !best with
  | Some (_, htd) -> htd
  | None ->
    (* Unreachable in practice — elimination-order decompositions are
       valid by construction — but fall back rather than fail. *)
    snd (Hypertree.ghw_upper_bound hg)

let search ?rng hg =
  match acyclic_decomposition hg with
  | Some htd -> htd
  | None -> cyclic_decomposition ?rng hg

(* Root the decomposition tree: BFS from the lowest node of each
   component, children attached to their discoverer; the reversed visit
   order lists children before parents, as the sweeps require. *)
let root_tree tree =
  let n = G.order tree in
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  let order = ref [] in
  for s = 0 to n - 1 do
    if not visited.(s) then begin
      visited.(s) <- true;
      let q = Queue.create () in
      Queue.push s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        order := u :: !order;
        Iset.iter
          (fun v ->
            if not visited.(v) then begin
              visited.(v) <- true;
              parent.(v) <- u;
              Queue.push v q
            end)
          (G.neighbors tree u)
      done
    end
  done;
  (parent, !order)

(* The atoms each bag's generic join enforces: its lambda cover plus
   every atom whose edge lies inside chi. Enforcing an atom in more than
   one bag is sound — every bag still holds the projection of every full
   solution — and each atom lies inside some bag of a valid GHD, so every
   atom is enforced somewhere. A partially-covered atom outside lambda
   must stay out: projecting it would leak tuples. *)
let bag_atoms hg htd =
  let atoms = List.init (Hypergraph.edge_count hg) Fun.id in
  Array.mapi
    (fun b chi ->
      let lambda = htd.Hypertree.lambda.(b) in
      List.filter
        (fun j -> List.mem j lambda || Iset.subset (Hypergraph.edge hg j) chi)
        atoms)
    htd.Hypertree.chi

(* ------------------------------------------------------------------ *)
(* The three-bound gate.                                               *)

(* fhtw-scale cost: the largest bag materialization, bounded per bag by
   the fractional edge cover of its lambda atoms. The evaluator joins
   those atoms plus every other atom inside the bag, which can only
   shrink the bag below this bound. *)
let bag_bound_log2 db cq decomposition =
  let atoms = Array.of_list cq.Cq.atoms in
  Array.fold_left
    (fun acc cover ->
      let sub = List.map (fun e -> atoms.(e)) cover in
      let bag = Agm.fractional_edge_cover db (Cq.make ~atoms:sub ~free:[]) in
      Float.max acc bag.Agm.bound_log2)
    0.0 decomposition.Hypertree.lambda

type cost_bounds = {
  cost_binary_log2 : float;
  cost_agm_log2 : float;
  cost_bag_log2 : float;
}

let bounds ?rng db cq =
  let binary, agm = Wcoj.bounds ?rng db cq in
  let decomposition = search ?rng (Hypergraph.of_query cq) in
  {
    cost_binary_log2 = binary;
    cost_agm_log2 = agm;
    cost_bag_log2 = bag_bound_log2 db cq decomposition;
  }

let prepare ?rng db cq =
  let base = Wcoj.prepare ?rng db cq in
  let hg = Hypergraph.of_query cq in
  let decomposition = search ?rng hg in
  let htw = Hypertree.width decomposition in
  let parent, order = root_tree decomposition.Hypertree.tree in
  let bag_atoms = bag_atoms hg decomposition in
  let ghd_bound_log2 = bag_bound_log2 db cq decomposition in
  let decision =
    match Sys.getenv_opt "PPR_GHD_GATE" with
    | Some "bucket" -> Bucket
    | Some "generic" -> Generic
    | Some "ghd" -> Ghd
    | _ ->
      (* One cost scale — log2 tuples of the worst intermediate each
         route can materialize. Ties prefer the cheapest machinery
         (bucket), then the generic join: when the best bag costs as
         much as the whole-query AGM bound (dense queries collapse to
         one bag), that bag's generic join does the whole query's work
         and the decomposition only adds its sweeps on top. *)
      let b = base.Wcoj.binary_bound_log2 in
      let g = base.Wcoj.agm.Agm.bound_log2 in
      let h = ghd_bound_log2 in
      if b <= g && b <= h then Bucket else if h < g then Ghd else Generic
  in
  {
    decomposition;
    htw;
    parent;
    order;
    bag_atoms;
    var_order = base.Wcoj.order;
    agm = base.Wcoj.agm;
    induced_width = base.Wcoj.induced_width;
    domain_estimate = base.Wcoj.domain_estimate;
    binary_bound_log2 = base.Wcoj.binary_bound_log2;
    ghd_bound_log2;
    decision;
  }

(* ------------------------------------------------------------------ *)
(* The evaluator: one generic join per bag, then the Yannakakis sweeps. *)

let with_span ctx name attrs f =
  match Ctx.telemetry ctx with
  | None -> f None
  | Some t -> Telemetry.with_span ~attrs t name (fun s -> f (Some s))

(* The bag's sub-query: its atoms projected onto chi, which lambda
   covers. Cover atoms may reach outside chi; the generic join searches
   those variables for one witness per chi binding. *)
let bag_query atoms chi js =
  Cq.make ~atoms:(List.map (fun j -> atoms.(j)) js) ~free:(Iset.elements chi)

(* Shared front half of both evaluation modes: validate the prep, tick
   fuel, and materialize every bag in its own [op.ghd.bag] span. *)
let prepared_bags ~ctx ~prep db cq =
  let atoms = Array.of_list cq.Cq.atoms in
  let n = Array.length atoms in
  let enforced = Array.make n false in
  Array.iter
    (List.iter (fun j ->
         if j >= n then invalid_arg "Ghd: prep does not match the query";
         enforced.(j) <- true))
    prep.bag_atoms;
  if not (Array.for_all Fun.id enforced) then
    invalid_arg "Ghd: prep does not match the query";
  (match Ctx.limits ctx with
  | Some l -> Limits.tick_operator l
  | None -> ());
  let htd = prep.decomposition in
  Array.mapi
    (fun b js ->
      with_span ctx "op.ghd.bag"
        [
          ("bag", Telemetry.Attr.Int b);
          ("cover", Telemetry.Attr.Int (List.length htd.Hypertree.lambda.(b)));
          ("atoms", Telemetry.Attr.Int (List.length js));
        ]
        (fun span ->
          let rel =
            Wcoj.evaluate ~ctx db (bag_query atoms htd.Hypertree.chi.(b) js)
          in
          Option.iter
            (fun s ->
              Telemetry.Span.set_attr s "rows"
                (Telemetry.Attr.Int (Relation.cardinality rel)))
            span;
          rel))
    prep.bag_atoms

let eval_attrs ~prep ~cq nb =
  [
    ("bags", Telemetry.Attr.Int nb);
    ("htw", Telemetry.Attr.Int prep.htw);
    ("atoms", Telemetry.Attr.Int (List.length cq.Cq.atoms));
    ("free", Telemetry.Attr.Int (List.length cq.Cq.free));
  ]

let incr_counter ctx name =
  match Ctx.telemetry ctx with
  | Some t ->
    Telemetry.Metrics.incr (Telemetry.Metrics.counter (Telemetry.metrics t) name)
  | None -> ()

let evaluate ?(ctx = Ctx.null) ?prep db cq =
  let prep = match prep with Some p -> p | None -> prepare db cq in
  let nb = Array.length prep.decomposition.Hypertree.chi in
  with_span ctx "op.ghd.eval" (eval_attrs ~prep ~cq nb) @@ fun _ ->
  incr_counter ctx "ops.ghd";
  let bags = prepared_bags ~ctx ~prep db cq in
  Yannakakis.sweeps ~ctx ~parent:prep.parent ~order:prep.order
    ~vars:prep.decomposition.Hypertree.chi ~free:cq.Cq.free bags

let enumerate ?(ctx = Ctx.null) ?prep db cq =
  let prep = match prep with Some p -> p | None -> prepare db cq in
  let nb = Array.length prep.decomposition.Hypertree.chi in
  (* Setup — bag materialization, the two semijoin sweeps and the
     per-node index build — runs inside the span and completes before
     this returns; the iterator it yields touches only the prebuilt
     indexes, so no span is left open across consumer pulls (cursors
     outlive any span scope). *)
  with_span ctx "op.ghd.enumerate" (eval_attrs ~prep ~cq nb) @@ fun _ ->
  incr_counter ctx "ops.ghd";
  let bags = prepared_bags ~ctx ~prep db cq in
  Yannakakis.enumerate ~ctx ~parent:prep.parent ~order:prep.order
    ~free:cq.Cq.free bags
