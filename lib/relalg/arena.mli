(** Columnar tuple arena: the storage behind every {!Relation}.

    All tuples of a relation are stored contiguously in one flat
    [int array] (row-major: row [i] occupies cells [i*arity] through
    [i*arity + arity - 1]) and are addressed by row number. Duplicate
    elimination uses an open-addressing, linear-probing hash index over
    row numbers — each slot holds [row + 1], with [0] marking an empty
    slot — whose keys are re-read from the arena, so an insert hashes its
    candidate tuple exactly once and allocates nothing.

    The hash function is FNV-1a over the columns, identical to
    {!Tuple.hash}, so a tuple hashes the same inside and outside an
    arena. The index doubles (rehashing from the arena) at 50% load; the
    data array doubles when full. Zero-arity relations work: the data array stays
    empty and the index holds at most the single empty tuple.

    {b Lazy index.} The index is built on first use. Rows appended with
    {!append_staged} skip it entirely; the next {!add}, {!mem} or
    {!commit_staged} allocates it (sized for the data capacity) and
    indexes every row past an [indexed] watermark. An arena that is only
    ever appended to never allocates, hashes or rehashes an index.

    {b Thread safety.} Because {!mem} may build or extend the index, a
    read is not pure until the arena is fully indexed. An arena read by
    several domains at once must be fully indexed before it is shared:
    {!add} keeps it so, and [Database.add] calls {!index} on every
    relation it stores, which covers the databases shared by serve
    workers and experiment sweeps. Once the arena is fully indexed, {!mem}
    writes nothing; {!get}, {!read}, {!iter}, {!fold} and {!copy} never
    do. *)

type t

val create : ?size_hint:int -> int -> t
(** [create ?size_hint arity] — an empty arena for tuples of the given
    arity. @raise Invalid_argument on a negative arity. *)

val arity : t -> int
val count : t -> int
(** Number of (distinct) rows stored. *)

val add : t -> int array -> bool
(** Insert a tuple by copying it into the arena; [true] if it was new.
    The tuple is hashed once; membership probing and insertion share the
    same probe sequence. @raise Invalid_argument on an arity mismatch. *)

val mem : t -> int array -> bool
(** Membership. Builds or catches up the index first, so see the
    thread-safety rule above. *)

val index : t -> unit
(** Bring the index up to date now, so later reads write nothing. *)

val get : t -> int -> int -> int
(** [get t row j] — column [j] of row [row]. Bounds-checked. *)

val read : t -> int -> int array
(** Materialize row [row] as a fresh tuple. *)

val iter : (int array -> unit) -> t -> unit
(** Iterate rows in insertion order, materializing each. *)

val fold : (int array -> 'a -> 'a) -> t -> 'a -> 'a
val copy : t -> t

(** {2 Kernel interface}

    Kernels read columns straight out of {!data} and build candidate
    output rows in place with {!stage}, then either {!commit_staged}
    (dedup) or {!append_staged} (no dedup), avoiding any per-tuple
    allocation. *)

val data : t -> int array
(** The raw row-major storage. Only cells of rows [0 .. count - 1] are
    meaningful; treat as read-only. The array is replaced wholesale when
    the arena grows, so re-fetch it after any insert. *)

val stage : t -> int
(** Reserve space for one candidate row and return its base offset into
    {!data}. The caller writes the [arity] cells at that offset, then
    calls {!commit_staged} or {!append_staged}. Staging again without
    committing simply overwrites the candidate. Staging never touches the
    index. *)

val commit_staged : t -> bool
(** Dedup-insert the staged row: brings the index up to date, hashes the
    row in place, returns [true] (and keeps the row) if it was new,
    [false] (row space is reused) if an equal row already exists. This is
    the commit for kernels that can produce duplicates (projection). *)

val append_staged : t -> unit
(** Keep the staged row without a dedup probe. The caller guarantees it
    equals no row already in the arena — a kernel whose output is
    duplicate-free by construction (a join of two sets, a subset of a
    set, distinct leapfrog prefixes). The row is indexed lazily, on the
    next {!add}, {!mem} or {!commit_staged}. Breaking the contract
    leaves a duplicate row that set operations will miscount. *)
