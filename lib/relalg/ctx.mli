(** Unified execution context.

    Everything cross-cutting that used to travel through separate
    [?stats ?limits ?telemetry] optionals, bundled into one value that
    every operator, {!Exec.run}, [Driver.run] and [Supervise.run] accept
    as a single [?ctx]. [Ctx.null] (the default everywhere) disables all
    instrumentation. Every operator runs on the calling domain. *)

type t

val null : t
(** No stats, no limits, no telemetry, no pool. *)

val create :
  ?stats:Stats.t ->
  ?limits:Limits.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Parallel.Pool.t ->
  unit ->
  t

val stats : t -> Stats.t option
val limits : t -> Limits.t option
val telemetry : t -> Telemetry.t option

val pool : t -> Parallel.Pool.t option
(** A domain pool for work that is independent by construction: the
    seed-by-cell fan-out of an experiment sweep reads it
    ([Experiments.Sweep.map_seeds]). Operators never read it; every
    join, projection and generic-join search runs on the calling
    domain whatever the pool. *)

val with_stats : t -> Stats.t -> t
val with_limits : t -> Limits.t -> t
val with_telemetry : t -> Telemetry.t -> t
