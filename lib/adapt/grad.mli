(** Gradient-guided join-order search — the drop-in alternative to the
    genetic planner for large naive queries.

    The discrete permutation space is relaxed through priority scores:
    a real vector over the atoms decodes to the order that sorts scores
    descending, Gumbel perturbations of the scores induce a smoothed
    (Plackett–Luce) distribution over permutations, and a score-function
    gradient of the expected log-cost moves the scores downhill. Greedy,
    genetic ({!Ppr_core.Naive.default_genetic}) and random restarts plus
    a swap/insertion polish make the search robust; since the genetic
    order is one of its starting points, it never returns a costlier
    order than the genetic planner. The plan space is exactly the genetic planner's —
    left-deep scan orders — so swapping planners can only change the
    order, never the answer. *)

type params = {
  seed : int;  (** base seed; the search derives its own streams *)
  restarts : int;
      (** random restarts beyond the greedy, genetic and identity inits *)
  steps : int;  (** gradient steps per restart *)
  batch : int;  (** Gumbel perturbations per gradient estimate *)
  learning_rate : float;
  sigma : float;  (** Gumbel noise scale (temperature of the relaxation) *)
}

val default_params : params

val order :
  ?params:params -> Ppr_core.Cost.env -> Conjunctive.Cq.atom array ->
  int array
(** A permutation of [0 .. m-1] (always valid, by construction: scores
    decode through argsort) approximately minimizing
    {!Ppr_core.Cost.order_cost}. Deterministic for fixed params, inputs
    and environment. *)

val register : unit -> unit
(** Register {!order} (with {!default_params}) as the ["gradient"]
    order-search plugin, so [Naive.Plugin ("gradient", threshold)]
    resolves — call once at startup (CLI main, engine create). *)
