(** Unified execution context.

    Everything cross-cutting that used to travel through separate
    [?stats ?limits ?telemetry] optionals — plus the domain pool —
    bundled into one value that every operator, {!Exec.run},
    [Driver.run] and [Supervise.run] accept as a single [?ctx].
    [Ctx.null] (the default everywhere) disables all instrumentation and
    runs sequentially. *)

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
(** The domain pool operators may fan work out on. [None] (the default)
    means strictly sequential execution. Carried in the context so one
    [--jobs N] at the entry point reaches every join and sweep. *)

val with_stats : t -> Stats.t -> t
val with_limits : t -> Limits.t -> t
val with_telemetry : t -> Telemetry.t -> t
val with_pool : t -> Parallel.Pool.t -> t

val without_pool : t -> t
(** Drop the pool: used by code already running on a worker domain that
    must hand a context to single-domain machinery (e.g. telemetry). *)
