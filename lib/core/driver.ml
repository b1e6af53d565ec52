type meth =
  | Naive of Naive.search
  | Straightforward
  | Early_projection
  | Reorder
  | Bucket_elimination
  | Minibucket of int
  | Hybrid
  | Hybrid_rank of int
  | Wcoj
  | Ghd

let all_paper_methods =
  [
    Naive Naive.default_search;
    Straightforward;
    Early_projection;
    Reorder;
    Bucket_elimination;
  ]

let method_name = function
  | Naive Naive.Dp -> "naive(dp)"
  | Naive Naive.Dp_bushy -> "naive(dp-bushy)"
  | Naive (Naive.Genetic _) -> "naive(geqo)"
  | Naive (Naive.Plugin (name, _)) -> Printf.sprintf "naive(%s)" name
  | Naive (Naive.Auto _) -> "naive"
  | Straightforward -> "straightforward"
  | Early_projection -> "early-projection"
  | Reorder -> "reordering"
  | Bucket_elimination -> "bucket-elimination"
  | Minibucket i -> Printf.sprintf "minibucket(%d)" i
  | Hybrid -> "hybrid"
  | Hybrid_rank n -> Printf.sprintf "hybrid#%d" n
  | Wcoj -> "wcoj"
  | Ghd -> "ghd"

type abort = {
  reason : Relalg.Limits.reason;
  partial_stats : Relalg.Stats.t;
}

type status = Completed | Aborted of abort

type outcome = {
  meth : meth;
  compile_seconds : float;
  exec_seconds : float;
  plan_width : int;
  max_arity : int;
  max_cardinality : int;
  tuples_produced : int;
  result : Relalg.Relation.t option;
  complete : bool;
  first_answer_seconds : float option;
  time_to_k : float option;
  status : status;
}

let abort_reason o =
  match o.status with Completed -> None | Aborted a -> Some a.reason

(* The one place result-shape facts derive from: everything else
   (cardinality, nonemptiness, pretty-printing) reads [result]. *)
let result_cardinality o = Option.map Relalg.Relation.cardinality o.result
let nonempty o = Option.map (fun r -> not (Relalg.Relation.is_empty r)) o.result

let compile ?rng ?feedback meth db cq =
  match meth with
  | Naive search -> Naive.compile ~search ?feedback db cq
  | Straightforward -> Straightforward.compile cq
  | Early_projection -> Early_projection.compile cq
  | Reorder -> Reorder.compile ?rng cq
  | Bucket_elimination -> Bucket.compile ?rng cq
  | Minibucket i_bound -> Minibucket.compile ?rng ~i_bound cq
  | Hybrid -> Hybrid.compile ?rng ?feedback db cq
  | Hybrid_rank n -> Hybrid.nth_plan ?rng ?feedback n db cq
  | Wcoj ->
    (* The binary fallback the AGM gate compares against; [run] executes
       the generic join directly when the gate picks it. *)
    let prep = Wcoj.prepare ?rng db cq in
    Bucket.compile ?rng ~order:(Array.of_list prep.Wcoj.order) cq
  | Ghd ->
    (* The bucket fallback the three-bound gate compares against; [run]
       executes the decomposition or the generic join directly when the
       gate picks them. *)
    let prep = Ghd.prepare ?rng db cq in
    Bucket.compile ?rng ~order:(Array.of_list prep.Ghd.var_order) cq

type compiled = Exec.compiled =
  | Plan of Plan.t
  | Generic_join of Wcoj.prep
  | Decomposed of Ghd.prep * Plan.t option

let prepare ?rng ?feedback meth db cq =
  match meth with
  | Wcoj -> (
    let prep = Wcoj.prepare ?rng db cq in
    match prep.Wcoj.decision with
    | Wcoj.Generic -> Generic_join prep
    | Wcoj.Binary ->
      Plan (Bucket.compile ?rng ~order:(Array.of_list prep.Wcoj.order) cq))
  | Ghd ->
    let prep = Ghd.prepare ?rng db cq in
    (* The bucket plan rides along only when the gate picked it, so a
       cached artifact replays without recompiling; the prep itself is
       always kept — the three bounds become exec-span attributes. *)
    let plan =
      match prep.Ghd.decision with
      | Ghd.Bucket ->
        Some (Bucket.compile ?rng ~order:(Array.of_list prep.Ghd.var_order) cq)
      | Ghd.Generic | Ghd.Ghd -> None
    in
    Decomposed (prep, plan)
  | _ -> Plan (compile ?rng ?feedback meth db cq)

(* Minibucket plans are deliberately approximate (a superset of the
   answer): the semijoin reroute in [Exec.stream] answers the exact
   query and would mask the approximation, so it is disabled there. *)
let exact_method = function Minibucket _ -> false | _ -> true

(* ------------------------------------------------------------------ *)
(* Cardinality harvest. With an [?observer], a run over a binary plan
   records every node's measured output cardinality ([Exec.run ?observe],
   post-order) and turns the prefix that completed into observations
   against the {e uncorrected} textbook model:
   - each atom scan vs its raw base cardinality, under the atom's
     signature;
   - each join's selectivity error — measured vs the independence
     estimate from the children's {e measured} inputs — split
     geometrically across the join's shared variables and emitted one
     observation per variable signature, so corrections transfer to any
     query joining the same columns;
   - the whole answer vs the textbook estimate of the reference
     left-deep plan, under the query signature (complete runs only).
   An aborted run fires [observe] only for the nodes that finished,
   which is a clean post-order prefix, so partial runs still teach the
   store about those nodes. Counts are (+1)-smoothed so empty
   intermediates stay finite in log space. *)
let harvest_node_observations ~env cq plan cards =
  let n = Array.length cards in
  let idx = ref 0 in
  let obs = ref [] in
  let emit key measured estimated =
    obs := { Cost.key; measured; estimated } :: !obs
  in
  let take () =
    if !idx >= n then None
    else begin
      let c = float_of_int cards.(!idx) in
      incr idx;
      Some c
    end
  in
  let rec walk node =
    match node with
    | Plan.Atom atom ->
      let m = take () in
      (match m with
      | Some measured ->
        let est = Cost.atom_cardinality env atom in
        emit (Cost.atom_signature atom) (measured +. 1.) (est +. 1.)
      | None -> ());
      m
    | Plan.Join (l, r) -> (
      match walk l with
      | None -> None
      | Some ml -> (
        match walk r with
        | None -> None
        | Some mr -> (
          match take () with
          | None -> None
          | Some measured ->
            (match
               List.filter
                 (fun v -> List.mem v (Plan.schema r))
                 (Plan.schema l)
             with
            | [] -> () (* cartesian: no join-key selectivity to learn *)
            | shared ->
              let denom =
                List.fold_left
                  (fun acc v -> acc *. Cost.domain_size env v)
                  1.0 shared
              in
              let est = ml *. mr /. denom in
              let ratio =
                Cost.clamp_factor ((measured +. 1.) /. (est +. 1.))
              in
              let per_var =
                ratio ** (1. /. float_of_int (List.length shared))
              in
              List.iter
                (fun v -> emit (Cost.variable_signature cq v) per_var 1.0)
                shared);
            Some measured)))
    | Plan.Project (sub, _) -> (
      match walk sub with None -> None | Some _ -> take ())
  in
  ignore (walk plan);
  List.rev !obs

let harvest_query_observation ~env cq result =
  match cq.Conjunctive.Cq.atoms with
  | [] -> []
  | atoms ->
    let reference =
      Plan.project_to
        (Plan.left_deep (List.map (fun a -> Plan.Atom a) atoms))
        cq.Conjunctive.Cq.free
    in
    let est = Cost.estimate env reference in
    [
      {
        Cost.key = Cost.query_signature cq;
        measured = float_of_int (Relalg.Relation.cardinality result) +. 1.;
        estimated = est +. 1.;
      };
    ]

let log_src =
  Logs.Src.create "ppr.driver" ~doc:"Method compilation and execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Collect the streamed answer under the requested delivery policy,
   timing the first pull and the completion of the request. *)
let collect_stream ~clock ~limit ~rank cur =
  let t0 = clock () in
  let first_at = ref None in
  let next () =
    let r = Relalg.Cursor.next cur in
    (match r with
    | Some _ when !first_at = None -> first_at := Some (clock () -. t0)
    | _ -> ());
    r
  in
  let tuples, complete =
    match (if limit = Some 0 then None else next ()) with
    | None -> ([], limit <> Some 0 || Relalg.Cursor.next cur = None)
    | Some t0' -> (
      match (rank, limit) with
      | None, None ->
        (* No policy: drain in stream order. *)
        let acc = ref [ t0' ] in
        Relalg.Cursor.iter (fun t -> acc := t :: !acc) cur;
        (List.rev !acc, true)
      | None, Some k ->
        (* A page that ends exactly at the stream's end is complete: when
           [take] filled the page, one more pull tells whether anything
           was left behind. *)
        let rest = Relalg.Cursor.take cur (k - 1) in
        (t0' :: rest, Relalg.Cursor.closed cur || Relalg.Cursor.next cur = None)
      | Some compare, None ->
        (* Global ranking with no page bound: full drain, full sort. *)
        let acc = ref [ t0' ] in
        Relalg.Cursor.iter (fun t -> acc := t :: !acc) cur;
        (List.sort compare !acc, true)
      | Some compare, Some k ->
        (* Ranked page: rank is global, so the stream drains fully, but
           only the k best survive — a bounded heap over the remainder,
           then the first tuple merged in. *)
        let rest = Relalg.Cursor.top_k ~compare cur k in
        let rec insert = function
          | [] -> [ t0' ]
          | x :: tl ->
            if compare t0' x <= 0 then t0' :: x :: tl else x :: insert tl
        in
        let merged = List.filteri (fun i _ -> i < k) (insert rest) in
        (merged, Relalg.Cursor.yielded cur <= k))
  in
  Relalg.Cursor.close cur;
  let time_to_k = clock () -. t0 in
  let rel =
    Relalg.Relation.create
      ~size_hint:(List.length tuples)
      (Relalg.Cursor.schema cur)
  in
  List.iter (fun t -> ignore (Relalg.Relation.add rel t)) tuples;
  (rel, complete, !first_at, Some time_to_k)

(* Driver-level spans ([compile:<method>], [exec:<method>]) and counters
   ([driver.runs], [driver.aborts.<reason>]) land in the caller's telemetry
   registry; the per-run [Stats.t] keeps its own private registry so the
   outcome's measurements never mix across runs. *)
let run ?rng ?feedback ?observer ?compiled ?limit ?rank
    ?(ctx = Relalg.Ctx.null) meth db cq =
  let limit = Option.map (max 0) limit in
  let telemetry = Relalg.Ctx.telemetry ctx in
  let clock = Unix.gettimeofday in
  let name = method_name meth in
  let in_span phase attrs f =
    match telemetry with
    | None -> f ()
    | Some t ->
      Telemetry.with_span t (phase ^ ":" ^ name) ~attrs (fun _ -> f ())
  in
  let t0 = clock () in
  (* A Wcoj run prepares the AGM gate inside the compile span: when the
     gate picks the generic join there is no binary plan at all, only the
     variable order; when it picks the binary side the bucket plan along
     the same order is the thing compiled. A [?compiled] artifact (a plan
     cache hit) skips the whole phase — the caller vouches it was
     prepared by {!prepare} for this method, query and database. *)
  let planned =
    match compiled with
    | Some c -> c
    | None -> in_span "compile" [] (fun () -> prepare ?rng ?feedback meth db cq)
  in
  let t1 = clock () in
  (* Analytic width: for a binary plan, its largest node schema; for the
     generic join, the widest unit it ever materializes — an atom or the
     output; for a decomposition, its largest bag (the bucket fallback's
     plan width when the gate picked bucket). *)
  let generic_width () =
    List.fold_left
      (fun acc a -> max acc (List.length (Conjunctive.Cq.atom_vars a)))
      (List.length cq.Conjunctive.Cq.free)
      cq.Conjunctive.Cq.atoms
  in
  let plan_width =
    match planned with
    | Plan plan -> Plan.width plan
    | Generic_join _ -> generic_width ()
    | Decomposed (prep, plan) -> (
      match (prep.Ghd.decision, plan) with
      | Ghd.Bucket, Some plan -> Plan.width plan
      | Ghd.Generic, _ -> generic_width ()
      | _ ->
        Array.fold_left
          (fun acc bag -> max acc (Hypergraphs.Hypertree.Iset.cardinal bag))
          (List.length cq.Conjunctive.Cq.free)
          prep.Ghd.decomposition.Hypergraphs.Hypertree.chi)
  in
  (match planned with
  | Plan plan ->
    Log.debug (fun m ->
        m "%s: compiled in %.4fs (width %d, %d joins, %d projections)" name
          (t1 -. t0) (Plan.width plan) (Plan.join_count plan)
          (Plan.projection_count plan))
  | Generic_join prep ->
    Log.debug (fun m ->
        m
          "%s: prepared in %.4fs (AGM bound 2^%.2f <= binary 2^%.2f, rho \
           %.2f, induced width %d)"
          name (t1 -. t0) prep.Wcoj.agm.Wcoj.Agm.bound_log2
          prep.Wcoj.binary_bound_log2 prep.Wcoj.agm.Wcoj.Agm.rho
          prep.Wcoj.induced_width)
  | Decomposed (prep, _) ->
    Log.debug (fun m ->
        m
          "%s: prepared in %.4fs (gate %s: bucket 2^%.2f vs generic 2^%.2f \
           vs ghd 2^%.2f, htw %d, induced width %d)"
          name (t1 -. t0)
          (Ghd.decision_name prep.Ghd.decision)
          prep.Ghd.binary_bound_log2 prep.Ghd.agm.Wcoj.Agm.bound_log2
          prep.Ghd.ghd_bound_log2 prep.Ghd.htw prep.Ghd.induced_width));
  let stats = Relalg.Stats.create () in
  let limits =
    match Relalg.Ctx.limits ctx with
    | Some l -> l
    | None -> Relalg.Limits.create ()
  in
  let exec_ctx =
    Relalg.Ctx.with_limits (Relalg.Ctx.with_stats ctx stats) limits
  in
  let exec_attrs =
    ("plan.width", Telemetry.Attr.Int plan_width)
    ::
    (match (meth, planned) with
    | Wcoj, _ -> (
      let decision =
        match planned with
        | Generic_join _ -> Wcoj.Generic
        | _ -> Wcoj.Binary
      in
      [ ("wcoj.decision", Telemetry.Attr.String (Wcoj.decision_name decision)) ]
      @
      match planned with
      | Generic_join prep ->
        [
          ( "wcoj.agm_bound_log2",
            Telemetry.Attr.Float prep.Wcoj.agm.Wcoj.Agm.bound_log2 );
          ( "wcoj.binary_bound_log2",
            Telemetry.Attr.Float prep.Wcoj.binary_bound_log2 );
        ]
      | _ -> [])
    | Ghd, Decomposed (prep, _) ->
      (* The three-bound gate: decision plus all three bounds, on the
         shared log2-tuples cost scale, land on every exec span. *)
      [
        ("ghd.decision", Telemetry.Attr.String (Ghd.decision_name prep.Ghd.decision));
        ("ghd.binary_bound_log2", Telemetry.Attr.Float prep.Ghd.binary_bound_log2);
        ( "ghd.agm_bound_log2",
          Telemetry.Attr.Float prep.Ghd.agm.Wcoj.Agm.bound_log2 );
        ("ghd.ghd_bound_log2", Telemetry.Attr.Float prep.Ghd.ghd_bound_log2);
        ("ghd.htw", Telemetry.Attr.Int prep.Ghd.htw);
        ("ghd.induced_width", Telemetry.Attr.Int prep.Ghd.induced_width);
      ]
    | _ -> [])
  in
  let streamed = limit <> None || rank <> None in
  (* Node-cardinality collection for the harvest: post-order, so an
     abort leaves a clean prefix. Only armed when someone listens. *)
  let harvest_cards =
    match observer with Some _ -> Some (ref []) | None -> None
  in
  let observe =
    Option.map (fun cell _node card -> cell := card :: !cell) harvest_cards
  in
  let result, complete, first_answer_seconds, time_to_k, status =
    in_span "exec" exec_attrs (fun () ->
        try
          if streamed then begin
            (* Delivery-bounded run: open the cursor and pull only what
               the policy needs. Early exit is the whole point — a
               limit-k run of a streaming route does O(setup + k) work,
               not O(answer). *)
            let cur =
              Exec.stream ~ctx:exec_ctx ~semijoin:(exact_method meth) db cq
                planned
            in
            let rel, complete, first_at, ttk =
              collect_stream ~clock ~limit ~rank cur
            in
            (Some rel, complete, first_at, ttk, Completed)
          end
          else
            let r =
              match planned with
              | Plan plan -> Exec.run ~ctx:exec_ctx ?observe db plan
              | Generic_join prep ->
                Exec.run_generic ~ctx:exec_ctx ~order:prep.Wcoj.order db cq
              | Decomposed (prep, plan) -> (
                match (prep.Ghd.decision, plan) with
                | Ghd.Ghd, _ -> Exec.run_ghd ~ctx:exec_ctx ~prep db cq
                | Ghd.Generic, _ ->
                  Exec.run_generic ~ctx:exec_ctx ~order:prep.Ghd.var_order db
                    cq
                | Ghd.Bucket, Some plan -> Exec.run ~ctx:exec_ctx db plan
                | Ghd.Bucket, None ->
                  (* A prep forced to bucket without its plan (should not
                     happen through [prepare]); compile the fallback. *)
                  Exec.run ~ctx:exec_ctx db
                    (Bucket.compile
                       ~order:(Array.of_list prep.Ghd.var_order)
                       cq))
            in
            (Some r, true, None, None, Completed)
        with Relalg.Limits.Abort reason ->
          Log.info (fun m ->
              m "%s: aborted — %s" name (Relalg.Limits.describe reason));
          ( None,
            false,
            None,
            None,
            Aborted { reason; partial_stats = Relalg.Stats.copy stats } ))
  in
  (match telemetry with
  | None -> ()
  | Some t ->
    let reg = Telemetry.metrics t in
    Telemetry.Metrics.incr (Telemetry.Metrics.counter reg "driver.runs");
    (match status with
    | Completed -> ()
    | Aborted a ->
      let label = Relalg.Limits.reason_label a.reason in
      Telemetry.Metrics.incr
        (Telemetry.Metrics.counter reg ("driver.aborts." ^ label))));
  (* Harvest: ground-truth cardinalities against the uncorrected model
     (the observations must measure the textbook model's error, not the
     corrected one's, or repeated blending would compound). *)
  (match observer with
  | None -> ()
  | Some emit ->
    let env = lazy (Cost.environment db cq) in
    let node_obs =
      match (streamed, planned, harvest_cards) with
      | false, Plan plan, Some cell ->
        harvest_node_observations ~env:(Lazy.force env) cq plan
          (Array.of_list (List.rev !cell))
      | _ -> []
    in
    let query_obs =
      match (status, result) with
      | Completed, Some r when complete ->
        harvest_query_observation ~env:(Lazy.force env) cq r
      | _ -> []
    in
    match node_obs @ query_obs with
    | [] -> ()
    | observations ->
      (match telemetry with
      | None -> ()
      | Some t ->
        Telemetry.Metrics.incr
          (Telemetry.Metrics.counter (Telemetry.metrics t)
             "driver.feedback.harvests"));
      emit observations);
  let t2 = clock () in
  Log.debug (fun m ->
      m "%s: executed in %.4fs (%s)" name (t2 -. t1)
        (Format.asprintf "%a" Relalg.Stats.pp stats));
  {
    meth;
    compile_seconds = t1 -. t0;
    exec_seconds = t2 -. t1;
    plan_width;
    max_arity = Relalg.Stats.max_arity stats;
    max_cardinality = Relalg.Stats.max_cardinality stats;
    tuples_produced = Relalg.Stats.tuples_produced stats;
    result;
    complete;
    first_answer_seconds;
    time_to_k;
    status;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "%-18s compile=%.4fs exec=%s width=%d/%d max_card=%d result=%s%s"
    (method_name o.meth) o.compile_seconds
    (match o.status with
    | Completed -> Printf.sprintf "%.4fs" o.exec_seconds
    | Aborted a ->
      Printf.sprintf "abort(%s)" (Relalg.Limits.reason_label a.reason))
    o.plan_width o.max_arity o.max_cardinality
    (match result_cardinality o with
    | Some c -> string_of_int c
    | None -> "-")
    (* the "+" marks a page of a larger answer; an absent result has
       nothing to be a page of *)
    (if o.complete || result_cardinality o = None then "" else "+")
