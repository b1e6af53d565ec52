(** Shared machinery for the scalability experiments: run a set of
    methods over generated instances, take medians over seeds, and print
    aligned series — one printed block per paper figure.

    Aborts are tracked per typed reason (deadline, tuple budget,
    cardinality, fuel, injected), and cells can optionally run under the
    {!Supervise} degradation ladder, in which case rescued runs — aborted
    once but completed by a lower rung — are counted separately. *)

type sample = {
  seconds : float;
  status : Ppr_core.Driver.status;
      (** of the final (or only) attempt for this seed *)
  rescued : bool;  (** a ladder rung below the first completed the run *)
  nonempty : bool option;
  plan_width : int;  (** analytic: largest node schema in the plan *)
  max_arity : int;  (** measured: widest intermediate relation *)
}

type cell = {
  median_seconds : float;
      (** median over seeds; aborted seeds count as [infinity] *)
  abort_fraction : float;  (** seeds whose final attempt aborted *)
  abort_breakdown : (string * float) list;
      (** fraction of seeds per {!Relalg.Limits.reason_label}, sorted;
          sums to [abort_fraction] *)
  rescued_fraction : float;  (** seeds rescued by the ladder *)
  nonempty_fraction : float;  (** over the seeds that finished *)
  median_plan_width : int;  (** predicted width, median over seeds *)
  median_max_arity : int;  (** measured width, median over seeds *)
}

type row = {
  row_panel : string;
  row_x : string;
  row_method : string;
  row_cell : cell;
}
(** One printed cell with its coordinates — what {!set_recorder}
    receives. Field names are prefixed so the record can be opened next
    to {!cell}. *)

val median : float list -> float
(** @raise Invalid_argument on the empty list. *)

val run_cell :
  ?limits_factory:(unit -> Relalg.Limits.t) ->
  ?ladder:Ppr_core.Driver.meth list ->
  ?budget:Supervise.Budget.t ->
  ?feedback:Ppr_core.Cost.feedback ->
  ?observer:(Ppr_core.Cost.observation list -> unit) ->
  ?ctx:Relalg.Ctx.t ->
  seeds:int list ->
  instance:(seed:int -> Conjunctive.Database.t * Conjunctive.Cq.t) ->
  meth:Ppr_core.Driver.meth ->
  unit -> cell
(** One (x-value, method) cell: generate the instance per seed, run the
    method, aggregate. Each seed also seeds the method's own random
    tie-breaking. When [ladder] is given the run goes through
    {!Supervise.run} with that cascade and [budget] (default
    {!Supervise.Budget.default}), and rescues are counted; otherwise a
    single unsupervised run uses [limits_factory]. [ctx] is threaded into
    every run (telemetry spans for each compile/exec/operator, abort
    tallies in the registry, domain pool); its limits
    field is overridden per run by [limits_factory] or the budget.
    [feedback] and [observer] thread an adaptive feedback loop through
    every run (see {!Ppr_core.Driver.run}): corrections are applied at
    compile time, harvested observations are handed to [observer] — the
    adaptive benchmark feeds them into an [Adapt.Store] between passes.
    With a pool installed and [observer] set, seeds still run in
    parallel; the caller's observer must be domain-safe
    ([Adapt.Store.ingest] is). *)

val print_header : title:string -> columns:string list -> x_label:string -> unit

val print_row : x:string -> cells:cell list -> unit
(** An abort-majority cell prints as [abort:REASON] (or [timeout] when
    reasons are mixed); otherwise the median time in seconds with the
    nonempty fraction.

    Concurrency contract: all output sinks (the table printer, the CSV
    channel, the recorder) share one mutex, and a row is emitted as one
    atomic section — table line, CSV line(s) and recorder calls together.
    Rows of the {e same} panel may therefore be printed from concurrent
    pool workers; interleaving can only reorder whole rows, so a CSV
    written under [--jobs N] parses cleanly and is a row permutation of
    the sequential one. {!print_header} swaps the panel the rows are
    attributed to, so distinct panels must still be run in sequence. *)

val print_width_summary : cells:cell list -> unit
(** Append a "predicted width -> measured width" row for the given cells
    (typically the panel's last, largest x), one entry per method column:
    the analytic plan width against the widest intermediate relation the
    execution actually produced. *)

val print_footer : unit -> unit

val set_csv_channel : out_channel option -> unit
(** When set, every {!print_row} also appends machine-readable lines
    [title,x,method,median_seconds,abort_fraction,abort_reasons,rescued_fraction,nonempty_fraction,plan_width,measured_width]
    to the channel (one per cell; a CSV header is written once;
    [abort_reasons] packs the per-reason breakdown as
    [label:fraction|label:fraction]). Intended for regenerating the
    figures with external plotting. *)

val csv_escape : string -> string
(** RFC 4180 field quoting: wraps the field in double quotes (doubling
    embedded quotes) when it contains a comma, a quote, or a CR/LF —
    exposed for the CSV round-trip tests. *)

val set_pool : Parallel.Pool.t option -> unit
(** Install an experiment-wide domain pool (the CLI's [--jobs N]). With a
    pool set, {!run_cell} runs its seeds in parallel (unless the context
    carries telemetry, whose span stack is single-domain) and
    {!map_cells} fans cells across domains; a pool inside [run_cell]'s
    own context takes precedence over the installed one. Aggregates are
    identical either way — only wall-clock changes. *)

val map_cells : ('a -> 'b) -> 'a list -> 'b list
(** [List.map], spread over the installed pool when one is set (and the
    caller is not already on a worker domain). The figure drivers use it
    to evaluate one row's method cells concurrently while keeping the
    printed row order.

    The fan-out is adaptive: the first item runs inline as a probe, and
    the rest go to the pool only when the measured per-item cost times
    the remaining count exceeds the pool's grain read as a work budget
    ([grain] × 100ns) — batches of sub-millisecond cells stay
    sequential, where domain wakeups cost more than they buy. Setting
    [PPR_PAR_GRAIN] rescales the budget (it is the default pool grain;
    see {!Parallel.Pool.create}). The same policy governs the per-seed
    fan-out inside {!run_cell}. *)

val set_recorder : (row -> unit) option -> unit
(** When set, every {!print_row} also passes each cell — with its panel,
    x value and method — to the callback. The benchmark harness uses this
    to accumulate rows for [BENCH_results.json]. *)
