(** Running one method on one query, with the measurements the paper
    reports: compile (plan construction) time, execution time, and the
    size/width of intermediate results — plus the streaming delivery
    policies ([limit], [rank]) the result-API layer adds on top. *)

type meth =
  | Naive of Naive.search
  | Straightforward
  | Early_projection
  | Reorder
  | Bucket_elimination
  | Minibucket of int  (** i-bound *)
  | Hybrid  (** cost-scored portfolio of structural plans *)
  | Hybrid_rank of int
      (** the portfolio's n-th cheapest candidate (0 = {!Hybrid});
          the degradation ladder walks down these ranks *)
  | Wcoj
      (** worst-case-optimal generic join, gated per query by the AGM
          fractional-edge-cover bound: when the bound beats the binary
          plan's worst case the query runs variable-at-a-time through
          {!Exec.run_generic}, otherwise it falls back to the bucket-
          elimination plan along the same variable order (see {!Wcoj}) *)
  | Ghd
      (** Yannakakis over a generalized hypertree decomposition, behind
          the three-way structural gate of {!Ghd.prepare}: each query is
          routed among bucket elimination, the generic join and
          GHD-Yannakakis by comparing induced width, the AGM bound and
          the fractional-hypertree bag bound on one log2-tuples cost
          scale; the decision and all three bounds land as exec-span
          attributes *)

val all_paper_methods : meth list
(** The five methods of the paper's experiments, naive first. *)

val method_name : meth -> string

type abort = {
  reason : Relalg.Limits.reason;  (** why the run died *)
  partial_stats : Relalg.Stats.t;
      (** snapshot of the execution statistics at the moment of abort *)
}

type status = Completed | Aborted of abort

type outcome = {
  meth : meth;
  compile_seconds : float;
  exec_seconds : float;
  plan_width : int;      (** analytic: largest node schema in the plan *)
  max_arity : int;       (** measured: widest intermediate relation *)
  max_cardinality : int; (** measured: largest intermediate relation *)
  tuples_produced : int;
  result : Relalg.Relation.t option;
      (** the materialized answer — full under the default policy, the
          delivered page under [limit]/[rank]; [None] when resources ran
          out. Derived facts (cardinality, nonemptiness) come from the
          {!result_cardinality} and {!nonempty} accessors, which read
          this one field *)
  complete : bool;
      (** whether [result] holds {e every} answer: always under the
          default policy, and under [limit]/[rank] exactly when the
          stream was exhausted within the requested page. [false] on
          abort *)
  first_answer_seconds : float option;
      (** streamed runs only: delay from opening the cursor to the first
          answer tuple; [None] on materialized runs and empty results *)
  time_to_k : float option;
      (** streamed runs only: delay from opening the cursor to the
          moment the delivery policy was satisfied *)
  status : status;  (** typed abort taxonomy; [Completed] on success *)
}

val abort_reason : outcome -> Relalg.Limits.reason option

val result_cardinality : outcome -> int option
(** Tuples in [result] ([None] when resources ran out). Under a
    [limit]/[rank] policy this counts the delivered page — check
    {!outcome.complete} before reading it as the query's answer count. *)

val nonempty : outcome -> bool option
(** Whether [result] is nonempty; same caveats as {!result_cardinality}. *)

val compile :
  ?rng:Graphlib.Rng.t -> ?feedback:Cost.feedback ->
  meth -> Conjunctive.Database.t -> Conjunctive.Cq.t ->
  Plan.t
(** [feedback] corrects the cost model for the cost-based methods
    ({!Naive}, {!Hybrid}, {!Hybrid_rank}) — see {!Cost.environment};
    purely structural methods ignore it. Corrections change which plan
    is chosen, never what it answers. *)

type compiled = Exec.compiled =
  | Plan of Plan.t  (** a binary project-join plan *)
  | Generic_join of Wcoj.prep
      (** the AGM gate picked the generic join: no binary plan exists,
          only the prepared variable order and bounds *)
  | Decomposed of Ghd.prep * Plan.t option
      (** a {!Ghd.prepare} artifact — decomposition, rooted bag tree,
          atom assignment and the three gate bounds; the bucket fallback
          plan rides along exactly when the gate picked bucket, so a
          cache hit replays without re-running the GHD search or the
          bucket compiler *)
(** Re-export of {!Exec.compiled}: the same artifact drives {!run},
    {!Exec.stream} and the serving layer's plan cache. *)

val prepare :
  ?rng:Graphlib.Rng.t -> ?feedback:Cost.feedback ->
  meth -> Conjunctive.Database.t -> Conjunctive.Cq.t ->
  compiled
(** The planning phase of {!run} as a reusable artifact: for {!Wcoj} the
    AGM gate decision (either the prepared generic join or the bucket
    plan along the same order), for every other method its compiled
    plan. The artifact is valid for re-execution of the same query
    against the same database — the serving layer's plan cache stores
    these so isomorphic template queries skip MCS ordering, AGM
    estimation and bucket construction entirely. *)

val run :
  ?rng:Graphlib.Rng.t -> ?feedback:Cost.feedback ->
  ?observer:(Cost.observation list -> unit) ->
  ?compiled:compiled ->
  ?limit:int -> ?rank:(Relalg.Tuple.t -> Relalg.Tuple.t -> int) ->
  ?ctx:Relalg.Ctx.t ->
  meth -> Conjunctive.Database.t -> Conjunctive.Cq.t -> outcome
(** Compile, execute, and measure. A {!Relalg.Limits.Abort} is caught and
    reported as [Aborted] (with the typed reason and the stats gathered up
    to that point) rather than raised. The execution context supplies
    limits (a fresh unlimited {!Relalg.Limits.t} is created when absent)
    and telemetry; the context's stats field is
    ignored — each run measures into its own private {!Relalg.Stats.t}
    so outcomes never mix across runs. With telemetry, the two phases run
    in [compile:<method>] / [exec:<method>] spans, operators record their
    own [op.*] spans underneath, and the registry tallies [driver.runs]
    plus one [driver.aborts.<reason>] counter per typed abort.

    [compiled] (a {!prepare} artifact for the {e same} method, query and
    database — the caller's contract) skips the compile phase entirely:
    [compile_seconds] then measures only the (near-zero) reuse cost.

    With neither [limit] nor [rank] the run materializes the full answer
    through the method's own evaluator, byte-for-byte as before. Either
    option switches execution to {!Exec.stream}: [limit] pulls at most
    that many tuples in stream order and stops — on streaming routes the
    work is O(setup + k), not O(answer) — while [rank] (a total order;
    include a tuple tiebreak for determinism) drains the stream through
    a bounded heap and delivers the [limit] least tuples ascending (the
    full sorted answer when [limit] is absent). Streamed outcomes fill
    [first_answer_seconds]/[time_to_k] and set [complete] iff nothing
    was left behind; the semijoin reroute is disabled for {!Minibucket}
    so its plans stay faithfully approximate.

    [feedback] corrects the cost model during the compile phase (see
    {!compile}); it is unused when [compiled] is supplied. [observer]
    receives harvested {!Cost.observation}s after the run: per-node
    measured cardinalities vs the uncorrected textbook model for binary-
    plan executions (atom scans under atom signatures, join selectivity
    errors split per shared-variable signature — a post-order prefix
    survives an abort), plus a query-level observation under the query
    signature when the run completed with the full answer. Streamed
    ([limit]/[rank]) runs harvest only the query-level observation,
    since partial pulls measure delivery, not selectivity. Each nonempty
    emission counts on [driver.feedback.harvests]. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One line per run; an incomplete (page-limited) result cardinality is
    suffixed with [+]. *)
