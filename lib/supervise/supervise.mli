(** Resilient execution supervisor.

    Wraps the compilation and execution of any {!Ppr_core.Driver.meth} in
    a supervised run: a {!Budget} bounds wall clock, materialized tuples,
    intermediate cardinality and operator fuel; aborts carry a typed
    {!Relalg.Limits.reason}; and instead of returning nothing, the
    supervisor retries down a {e degradation ladder} of structurally
    cheaper (or safer) methods, each rung with a freshly scaled budget and
    a jittered deterministic backoff. Every attempt is recorded in the
    {!report} so experiments can count rescues, not just failures.

    This is the "robust plans under uncertainty" concern of
    structure-guided evaluation: a width-blown bucket elimination should
    degrade to a mini-bucket bound, a greedy reordering, or the
    straightforward plan — never into silence. *)

module Budget = Budget
module Chaos = Chaos

type attempt = {
  rung : int;  (** 0-based position in the ladder *)
  meth : Ppr_core.Driver.meth;
  budget : Budget.t;  (** the scaled budget this attempt ran under *)
  backoff_seconds : float;
      (** the jittered backoff computed before this attempt (0 for the
          first attempt, and whenever no backoff base is configured) *)
  outcome : Ppr_core.Driver.outcome;
  approximate : bool;
      (** true when the rung's method only guarantees an upper bound
          (mini-bucket): a rescue here trades exactness for an answer *)
  replanned : bool;
      (** true for the inserted re-plan rung: same method, recompiled
          under the cardinalities observed in the aborted attempts *)
}

type report = {
  attempts : attempt list;  (** in execution order; never empty *)
  result : Ppr_core.Driver.outcome option;
      (** the completed attempt's outcome, [None] when every rung died *)
  rescued : bool;
      (** completed only after at least one aborted attempt *)
  total_seconds : float;  (** compile + exec + backoff over all attempts *)
}

val is_approximate : Ppr_core.Driver.meth -> bool
(** Methods whose results are upper bounds rather than exact answers. *)

val default_ladder : Ppr_core.Driver.meth -> Ppr_core.Driver.meth list
(** The configurable cascade's default, starting from the given method:
    bucket elimination degrades through mini-bucket and reordering to the
    straightforward plan; {!Ppr_core.Driver.Hybrid} walks its portfolio's
    next-best candidates; methods with nothing cheaper below them retry
    alone. The first element is always the method itself. *)

val run :
  ?rng:Graphlib.Rng.t ->
  ?feedback:Ppr_core.Cost.feedback ->
  ?observer:(Ppr_core.Cost.observation list -> unit) ->
  ?replan:bool ->
  ?budget:Budget.t ->
  ?ladder:Ppr_core.Driver.meth list ->
  ?budget_scaling:float ->
  ?backoff_base:float ->
  ?sleep:bool ->
  ?chaos:Chaos.t ->
  ?clock:(unit -> float) ->
  ?compiled:Ppr_core.Driver.compiled ->
  ?overall_deadline_seconds:float ->
  ?ctx:Relalg.Ctx.t ->
  Ppr_core.Driver.meth ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  report
(** Run [meth] under [budget] (default {!Budget.default}); on a typed
    abort, walk the [ladder] (default {!default_ladder}). Rung [i] runs
    under [Budget.scale (budget_scaling ^ i) budget] (default scaling
    [1.0], i.e. a fresh identical budget per rung). Before retry [i >= 1]
    a backoff of [backoff_base * 2^(i-1)], jittered deterministically in
    [0.5x, 1.5x) from [rng], is recorded — and actually slept only when
    [sleep] is true (default false: ladder retries are synchronous
    recomputation, so sleeping only matters for transient external
    faults). [chaos] arms a fault on the attempts in its scope. [clock]
    is forwarded to the budget's limits. [ctx] supplies telemetry to
    every rung; each rung's limits come from its scaled
    budget, overriding any limits in [ctx]. With telemetry, every rung
    runs in a [supervise.rung] span (attributes: rung index, method, completion
    status or abort reason), rung wall time feeds the
    [supervise.rung_seconds] histogram, and the registry counts
    [supervise.runs], [supervise.rescues] and [supervise.exhausted].

    [compiled] (a {!Ppr_core.Driver.prepare} artifact for [meth] on this
    query and database — a plan-cache hit) is handed to rung 0 when that
    rung runs the requested method, skipping its compile phase; deeper
    rungs run different methods and always recompile.

    [overall_deadline_seconds] bounds the {e whole} supervised run, not
    one rung: every backoff pause is capped at the time remaining to it
    (a large [backoff_base] never sleeps past the caller's deadline),
    each rung's budget deadline is clamped to the remainder, and once
    the remainder reaches zero the ladder stops walking — the serving
    layer's per-request deadline lands here, turning the ladder into
    bounded load-shedding.

    [feedback] corrects the cost model in every rung's compile phase
    (see {!Ppr_core.Driver.run}); [observer] receives each rung's
    harvested observations. [replan] (default false) arms the adaptive
    rung: when an attempt of a cost-based method ({!Ppr_core.Driver.Naive},
    [Hybrid], [Hybrid_rank]) aborts after harvesting at least one
    observation, the {e same} method is retried once, recompiled under a
    feedback that layers the aborted attempts' measured intermediate
    cardinalities over [feedback] — the observed blow-up steers the new
    plan away from the order that caused it — before the ladder sheds to
    weaker methods. At most one re-plan per ladder; each counts on
    [supervise.replans], and the attempt is flagged [replanned]. *)

val pp_report : Format.formatter -> report -> unit
