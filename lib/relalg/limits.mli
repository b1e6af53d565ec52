(** Unified resource budgets with typed abort reasons.

    The paper's experiments time out slow methods; in this reproduction a
    run is aborted instead when any component of a budget is exhausted: a
    per-relation cardinality cap, a whole-run tuple budget, a wall-clock
    deadline, or an operator-count fuel. Each guard trips with a typed
    {!reason} so callers (the supervisor, the sweeps, the CLI) can tell
    {e why} a run died and react differently — retry down a degradation
    ladder on a deadline, but not on an injected fault, say.

    Deadlines are polled inside operator inner loops (every
    [check_interval] charged tuples) and at every operator boundary, so
    they fire mid-join rather than only between operators. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Tuple_budget  (** the whole-run tuple budget is exhausted *)
  | Cardinality of int
      (** an intermediate relation reached this many tuples, over the cap *)
  | Fuel  (** the operator-count fuel is spent *)
  | Injected of string  (** a fault injected by {!val:set_hook} (chaos) *)

exception Abort of reason
(** Raised by the engine when a guard trips. *)

type t

type hook = ops:int -> total:int -> unit
(** Called with the running operator count and charged-tuple total at
    every charge and operator boundary; may raise {!Abort} to inject a
    fault (see [Supervise.Chaos]). *)

val create :
  ?max_tuples:int ->
  ?max_total:int ->
  ?fuel:int ->
  ?deadline_seconds:float ->
  ?clock:(unit -> float) ->
  ?check_interval:int ->
  unit ->
  t
(** [max_tuples] caps the cardinality of any single intermediate relation
    (default [2_000_000]); [max_total] caps the total number of tuples
    materialized over the whole run (default [20_000_000]); [fuel] caps
    the number of operators executed (default unlimited);
    [deadline_seconds] bounds wall-clock time from now (default none).
    [clock] supplies the time in seconds (default {!Unix.gettimeofday};
    tests inject fake clocks). [check_interval] is how many charged
    tuples may pass between deadline polls inside an operator (default
    [512]; operator boundaries always poll). *)

val unlimited : unit -> t
(** Guards that never trip. *)

val charge : t -> int -> unit
(** Account for [n] freshly materialized tuples. Check-then-commit: when
    the budget would be exceeded the total is left untouched, so
    {!total_charged} and {!remaining} stay meaningful after an abort.
    @raise Abort with [Tuple_budget] when the budget runs out, [Deadline]
    when a poll finds the deadline passed, or whatever the hook raises. *)

val check_cardinality : t -> int -> unit
(** @raise Abort with [Cardinality n] when a single relation passes the
    per-relation cap. *)

val tick_operator : t -> unit
(** Called once at the start of every operator: spends one unit of fuel
    and polls the deadline and hook. Check-then-commit like {!charge}.
    @raise Abort with [Fuel] when the fuel is spent. *)

val check_deadline : t -> unit
(** Poll the clock now, regardless of the check interval.
    @raise Abort with [Deadline] when the deadline has passed. *)

val set_hook : t -> hook option -> unit
(** Install (or clear) the fault-injection hook. *)

val total_charged : t -> int
(** Tuples charged so far (never exceeds the budget, even after a trip). *)

val remaining : t -> int
(** Tuple budget left: [max_total - total_charged]. *)

val operators_run : t -> int
val remaining_fuel : t -> int

val describe : reason -> string
(** Human-readable diagnostic, e.g. ["wall-clock deadline exceeded"]. *)

val reason_label : reason -> string
(** Short stable label for aggregation and CSV output: one of
    ["deadline"], ["tuple-budget"], ["cardinality"], ["fuel"],
    ["injected"]. *)

val pp_reason : Format.formatter -> reason -> unit
