(** Sorted column indexes for the generic join.

    A trie is one atom's materialized relation with its columns permuted
    into the global variable order and its rows sorted lexicographically,
    stored as a flat row-major [int array] (sorted straight off the
    relation's {!Relalg.Arena}). Sorted this way, the rows matching any
    prefix of bound values form a contiguous range, so the leapfrog
    intersection only ever narrows [\[lo, hi)] windows with galloping
    searches — no per-level allocation. *)

type t

val build : depth_of_var:(Relalg.Schema.attr -> int) -> Relalg.Relation.t -> t
(** Index a relation. [depth_of_var] maps each schema attribute to its
    position in the global variable order; levels are sorted by it. *)

val rows : t -> int
val width : t -> int

val depth_at : t -> int -> int
(** [depth_at t l] is the global order position of level [l]'s variable. *)

val value : t -> level:int -> row:int -> int
(** The cell at one sorted row. *)

val seek : t -> level:int -> lo:int -> hi:int -> int -> int
(** Least row in [\[lo, hi)] whose [level] column is [>= v], or [hi].
    Gallops from [lo], so a scan that advances monotonically pays
    amortized O(log step). The caller must have fixed levels [< level]
    to a single value over [\[lo, hi)]. *)

val strictly_above : t -> level:int -> lo:int -> hi:int -> int -> int
(** Least row in [\[lo, hi)] whose [level] column is [> v], or [hi]. *)
