(** A fixed-size domain pool over OCaml 5 stdlib primitives.

    The pool owns [num_domains - 1] worker domains blocked on a shared
    work queue; the domain that calls {!run} is the remaining member and
    participates in draining its own batch, so a pool of size 1 spawns
    nothing and runs everything inline. Batches are synchronous: {!run}
    returns only when every task of the batch has finished, which is the
    shape the experiment sweeps' fan-out of independent seed and cell
    runs needs (fork/join, no detached futures). Query operators never
    use a pool: every query runs on one domain.

    Exception discipline: every task of a batch is attempted even when an
    earlier one fails; the first failure {e in task order} (not
    completion order) is re-raised on the calling domain with its
    original backtrace, so [run] behaves like [List.map] as far as the
    caller can observe.

    Nested calls never deadlock: a task that itself calls {!run} on any
    pool (detected with a domain-local flag) runs its sub-batch inline on
    the worker rather than enqueueing — the pool is a flat fan-out, not a
    scheduler. *)

type t

val create : ?num_domains:int -> ?grain:int -> unit -> t
(** [create ~num_domains ()] spawns [num_domains - 1] workers.
    [num_domains] defaults to {!Domain.recommended_domain_count} and is
    clamped to at least 1; it counts the calling domain, so it is the
    degree of parallelism a batch can reach. [grain] is advisory: the
    experiment sweeps read it as a probe-measured work budget and stay
    sequential below it, where fanning out costs more than it buys. It
    defaults to the [PPR_PAR_GRAIN] environment variable when that holds
    a positive integer, else [16384]; an explicit argument beats the
    environment.
    Workers idle on a condition variable — a pool at rest burns no
    CPU. *)

val size : t -> int
(** The degree of parallelism (workers + the calling domain), >= 1. *)

val grain : t -> int
(** The advisory sequential-below-this threshold given at {!create}. *)

val run : t -> (unit -> 'a) list -> 'a list
(** Run the thunks to completion, in parallel up to {!size}, and return
    their results in input order. Runs inline (still collecting every
    result before re-raising) when the pool has size 1, when called from
    inside a pool task, or when the batch has fewer than 2 tasks.
    @raise e the first (by task index) exception any task raised. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] = [run pool (List.map (fun x () -> f x) xs)]. *)

val current_is_worker : unit -> bool
(** Whether the calling domain is currently inside a pool task (in which
    case nested {!run} calls execute inline). *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; also registered with
    [at_exit], so dropping a pool without shutting it down only costs the
    workers until process exit. Calling {!run} after shutdown runs the
    batch inline. *)
