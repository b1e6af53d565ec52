(** The feedback store: learned cardinality-correction factors keyed by
    the structural signatures of {!Ppr_core.Cost}.

    Each entry blends the measured/estimated ratios observed for one
    signature into a single correction factor with exponential decay —
    recent executions dominate, old mistakes fade — and the whole store
    round-trips to disk with the same self-describing header discipline
    as the serving layer's plan cache: magic, format version, digest of
    the running executable, atomic tmp+rename. Thread-safe: worker
    domains of one daemon share one store. *)

type t

val create : ?decay:float -> unit -> t
(** An empty store. [decay] is the blending weight of the {e newest}
    observation, in (0, 1]: factors update as
    [log f <- (1 - decay) * log f + decay * log ratio] (the first
    observation for a key is taken whole). Defaults to [0.3].
    @raise Invalid_argument if [decay] is outside (0, 1]. *)

val decay : t -> float

val observe : t -> key:string -> measured:float -> estimated:float -> unit
(** Blend one ground-truth sample into the key's factor. The ratio
    [measured /. estimated] is clamped per {!Ppr_core.Cost.clamp_factor}
    before blending; samples with non-positive or non-finite [estimated]
    or negative [measured] are dropped. *)

val ingest : t -> Ppr_core.Cost.observation list -> unit
(** {!observe} every harvested observation — the driver's observer hook
    funnels here. *)

val factor : t -> string -> float option
(** The current correction factor for a signature, or [None] if the
    store never saw it. Does not count as a feedback hit. *)

val feedback : t -> Ppr_core.Cost.feedback
(** The store as a correction function for {!Ppr_core.Cost.environment}.
    Every [Some] answer counts on {!hits} — the observable that lets
    tests (and the daemon's stats) prove corrected estimates are
    actually being served. *)

val size : t -> int
(** Distinct signatures with a learned factor. *)

val hits : t -> int
(** Total [Some] answers served through {!feedback} closures. *)

val samples : t -> int
(** Total observations blended in (across all keys, including decayed
    ones). *)

val save : t -> string -> int
(** Write a snapshot (atomically: tmp file, then rename), returning the
    number of entries written. The {!Snapshot} header carries a magic
    string, the format version, the digest of the running executable and
    the digest of the body, so only the binary that wrote a snapshot
    trusts it, and only intact. *)

val load : t -> string -> int
(** Merge a snapshot's entries into the store (snapshot factors seed
    keys the store has not seen; keys already present keep their live
    value), returning the number of entries read. A missing file, a
    foreign, stale or corrupted snapshot, or any decode error loads
    nothing and returns [0] — a bad snapshot must never poison a fresh
    daemon. *)
