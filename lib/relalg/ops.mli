(** Relational-algebra operators.

    Every operator materializes its result (set semantics). All operators
    accept a single optional execution context ({!Ctx.t}) bundling the
    stats, limits and telemetry that used to be separate optionals.
    Every operator runs on the calling domain. With stats, callers can
    measure the quantities the paper studies — maximum intermediate arity
    and cardinality; with limits, bound runaway evaluations; with
    telemetry, each operator runs inside a span named [op.*] carrying
    input/output cardinality, output arity and (for hash joins) probe
    counts, and joins observe their fan-out ratio in the
    [ops.join_fanout] histogram. [Ctx.null] (the default) disables all of
    it.

    Each operator spends one unit of {!Limits} fuel on entry and charges
    per materialized tuple, so deadlines and budgets fire mid-operator.

    The joins, semijoins, antijoins and projections run specialized
    kernels that read columns directly out of the tuple arenas and never
    allocate per probe. The joins and the semi/antijoins share one
    hash-index kernel and append their output rows without a dedup
    probe ({!Arena.append_staged}): a join of two sets, or a subset of a
    set, cannot repeat a row. Projection, which can, deduplicates.

    @raise Limits.Abort when a guard trips (see {!Limits.reason}). *)

val natural_join : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** [natural_join r s] joins on all attributes the schemas share; the
    result schema is [r]'s schema followed by [s]'s remaining attributes.
    Implemented as a hash join — the only join kernel, mirroring the
    paper's PostgreSQL setup with hash joins forced — building on the
    smaller input; the index is built directly over the join-key
    columns of the build arena (single-attribute keys take a further
    specialized path). Degenerates to the cartesian product when the
    schemas are disjoint. *)

val product : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** Cartesian product. @raise Invalid_argument if schemas intersect. *)

val equijoin :
  ?ctx:Ctx.t -> on:(Schema.attr * Schema.attr) list ->
  Relation.t -> Relation.t -> Relation.t
(** [equijoin ~on r s] joins on the explicit attribute pairs (left
    attribute from [r], right from [s]); both columns are kept, as SQL
    does. The schemas must be disjoint (qualified column names from
    different aliases). An empty [on] is the cartesian product. Runs
    on the same hash-join kernel as {!natural_join}.
    @raise Not_found if a pair names an absent attribute. *)

val project : ?ctx:Ctx.t -> Relation.t -> Schema.t -> Relation.t
(** [project r s] keeps the columns of [s] (in [s]'s order), eliminating
    duplicates. @raise Not_found if [s] is not a subset of [r]'s schema. *)

val project_away : ?ctx:Ctx.t -> Relation.t -> Schema.attr list -> Relation.t
(** Drop the listed attributes, keeping the rest in relation order.
    Attributes not present are ignored. *)

val select : ?ctx:Ctx.t -> Relation.t -> (Tuple.t -> bool) -> Relation.t
(** Generic selection; the schema is unchanged. *)

val select_eq : ?ctx:Ctx.t -> Relation.t -> Schema.attr -> int -> Relation.t
(** Rows whose attribute equals a constant. *)

val select_attr_eq :
  ?ctx:Ctx.t -> Relation.t -> Schema.attr -> Schema.attr -> Relation.t
(** Rows where two attributes agree. *)

val rename : Relation.t -> (Schema.attr * Schema.attr) list -> Relation.t
(** [rename r mapping] renames attributes per the association list
    (attributes absent from the list keep their names).
    @raise Invalid_argument if renaming creates duplicates. *)

val union : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** Set union. The second relation is reordered to the first's schema.
    @raise Invalid_argument if the schemas are not permutations. *)

val inter : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
val diff : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t

val semijoin : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** [semijoin r s] keeps the rows of [r] that join with some row of [s]
    (the Wong–Youssefi reducer; see also {!antijoin}). [s] is indexed on
    the shared columns and [r]'s rows probe it in place. *)

val antijoin : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** Rows of [r] that join with no row of [s]. *)
