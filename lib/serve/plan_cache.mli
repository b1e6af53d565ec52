(** A bounded, thread-safe LRU cache of compiled plan artifacts.

    The serving layer keys it by {!key_of}: the method name plus the
    {e canonicalized} query ({!Hypergraphs.Canon}), so every
    instantiation of one query template — variables renamed, atoms
    permuted — shares a single compiled artifact and skips MCS ordering,
    AGM estimation and bucket construction on a hit. Keys are injective
    in the canonical structure, so a hit can only return an artifact
    compiled for an isomorphic query: evaluating it is guaranteed
    tuple-identical to a cold compile (renaming is a bijection and the
    canonical free order follows the request's).

    The cache is generic in the artifact type; the engine stores
    {!Ppr_core.Driver.compiled} values. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** LRU bound (default 512 entries). @raise Invalid_argument on
    [capacity < 1]. *)

val key_of : canon:Hypergraphs.Canon.t -> meth:string -> string
(** Injective serialization of (method, canonical query). *)

val find : 'a t -> string -> 'a option
(** Counts a hit or a miss, and refreshes recency on hit. *)

val add : 'a t -> string -> 'a -> 'a
(** Insert, evicting the least-recently-used entry at capacity. If a
    racing insert already filled the key, the existing artifact is kept
    and returned, so all sessions share one value per key. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** Lookup, compiling on a miss ([compile] runs outside the cache lock —
    racing misses may compile twice; the first insert wins). The boolean
    is [true] on a hit. *)

val size : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int

val save : 'a t -> string -> int
(** [save t path] snapshots every cached entry to [path] (atomically,
    via a [.tmp] rename), oldest-first so {!load} rebuilds the same LRU
    order, through {!Adapt.Snapshot}: the header records a format
    version, the digest of the running executable and the digest of the
    body. Returns the number of entries written.
    @raise Sys_error when the file cannot be written. *)

val load : 'a t -> string -> int
(** [load t path] replays a {!save} snapshot through {!add}. Returns the
    number of entries restored — [0], never an exception, when the file
    is missing, truncated, corrupt, version-skewed or written by a
    different binary (artifacts are Marshal-ed, so a snapshot is only
    valid for the executable that produced it, and the body's digest is
    checked before anything is unmarshalled). Counters are untouched:
    restored entries count as neither hits nor misses. *)
