(** Decomposition-based evaluation: generalized hypertree decompositions
    plus full Yannakakis, behind one structural gate.

    This is the "Structure-Guided Query Evaluation" pipeline over the
    existing machinery: {!search} finds a generalized hypertree
    decomposition (the GYO join tree directly for acyclic queries, a
    bounded-width elimination search otherwise), {!evaluate} materializes
    each bag with one worst-case-optimal generic join ({!Wcoj.evaluate})
    over its covering [lambda] atoms plus every atom lying inside the bag,
    and runs the {!Hypergraphs.Yannakakis.sweeps} over the bag tree —
    making Yannakakis total on cyclic queries. {!prepare}
    additionally computes the three-way structural gate: induced width
    (bucket elimination), the AGM fractional-cover bound (generic join)
    and the fractional-hypertree-scale bag bound, all on one log2-tuples
    cost scale. *)

type decision = Bucket | Generic | Ghd

val decision_name : decision -> string

type prep = {
  decomposition : Hypergraphs.Hypertree.t;
      (** validated GHD of the query hypergraph *)
  htw : int;  (** its generalized hypertree width (largest cover) *)
  parent : int array;  (** rooted bag tree: parent of each bag, -1 at roots *)
  order : int list;  (** bags bottom-up (children before parents) *)
  bag_atoms : int list array;
      (** per bag, ascending atom indices its generic join enforces: the
          [lambda] cover plus every atom whose variables lie inside
          [chi]. Every atom appears in at least one bag. *)
  var_order : int list;  (** MCS variable order, free variables first *)
  agm : Wcoj.Agm.t;  (** fractional edge cover of the whole query *)
  induced_width : int;
  domain_estimate : int;
  binary_bound_log2 : float;
      (** bucket-elimination worst case, [(induced_width + 1) * log2 d] *)
  ghd_bound_log2 : float;
      (** largest per-bag fractional-cover bound — the fhtw cost scale *)
  decision : decision;
}

type cost_bounds = {
  cost_binary_log2 : float;
      (** bucket-elimination worst case, [(induced_width + 1) * log2 d] *)
  cost_agm_log2 : float;  (** AGM fractional-cover bound, whole query *)
  cost_bag_log2 : float;
      (** largest per-bag fractional-cover bound (fhtw scale) *)
}

val bounds :
  ?rng:Graphlib.Rng.t -> Conjunctive.Database.t -> Conjunctive.Cq.t ->
  cost_bounds
(** The three gate bounds of {!prepare} without the rest of the
    artifact (rooted bag tree, per-bag atoms): what cost-aware
    admission control needs {e before} committing to a compile. Pure —
    touches only relation cardinalities — and polynomial in the query
    size (the decomposition search runs, the evaluator does not). *)

val search :
  ?rng:Graphlib.Rng.t -> Hypergraphs.Hypergraph.t -> Hypergraphs.Hypertree.t
(** Find a generalized hypertree decomposition: GYO fast path (width 1,
    with forest roots chained into a single valid tree) when the
    hypergraph is acyclic, otherwise the best of the MCS / min-degree /
    min-fill elimination decompositions plus rng-seeded MCS restarts,
    each checked with {!Hypergraphs.Hypertree.is_valid}, stopping early
    at the cyclic optimum (width 2). *)

val prepare :
  ?rng:Graphlib.Rng.t -> Conjunctive.Database.t -> Conjunctive.Cq.t -> prep
(** The planning half: decomposition, rooted bag tree, each bag's atom
    list and the three-bound gate. Pure — touches only relation
    cardinalities. The [PPR_GHD_GATE] environment variable overrides the
    gate: ["bucket"], ["generic"] and ["ghd"] force a route; anything
    else (or unset) picks the smallest of [binary_bound_log2],
    [agm.bound_log2] and [ghd_bound_log2], ties preferring bucket, then
    the generic join. *)

val evaluate :
  ?ctx:Relalg.Ctx.t ->
  ?prep:prep ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  Relalg.Relation.t
(** Run Yannakakis over the decomposition (unconditionally — gating is
    the caller's business, see {!prepare}). [prep] defaults to a fresh
    {!prepare} and must describe the {e same} query against the same
    database (the serving layer's plan cache replays stored preps so
    hits skip the GHD search). Tuple-identical to any correct plan:
    each bag is one {!Wcoj.evaluate} call over [prep.bag_atoms], projected
    onto [chi], so a bag never exceeds the AGM bound of its own atoms;
    the three sweeps then assemble the projected answer. Everything flows
    through the context — [op.ghd.eval] span with per-bag [op.ghd.bag]
    spans (attributes [atoms] enforced and [rows] materialized, each with
    an [op.wcoj.join] child), the [ops.ghd] and [ops.wcoj] counters,
    limits and stats apply to every operator, all on the calling domain.
    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Invalid_argument when [prep] does not match the query.
    @raise Not_found if an atom names an unregistered relation. *)

val enumerate :
  ?ctx:Relalg.Ctx.t ->
  ?prep:prep ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  Relalg.Schema.t * ((Relalg.Tuple.t -> unit) -> unit)
(** The streaming counterpart of {!evaluate}: materialize the bags
    exactly as {!evaluate} does (one generic join per bag), then hand them to
    {!Hypergraphs.Yannakakis.enumerate} — semijoin reduction and index
    build up front (inside an [op.ghd.enumerate] span), followed by
    constant-delay backtracking enumeration from the reduced bag tree
    with {e no} final join materialization. Returns the answer schema
    (the query's free variables, in order) and the iterator. Emitted
    projections may repeat when the free variables omit bag-join
    attributes; wrap in a deduplicating {!Relalg.Cursor}.
    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Invalid_argument when [prep] does not match the query.
    @raise Not_found if an atom names an unregistered relation. *)
