module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Tuple = Relalg.Tuple
module Cursor = Relalg.Cursor
module Ops = Relalg.Ops
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Cq = Conjunctive.Cq
module Database = Conjunctive.Database
module Yannakakis = Hypergraphs.Yannakakis
module Jointree = Hypergraphs.Jointree
module Hypergraph = Hypergraphs.Hypergraph

type compiled =
  | Plan of Plan.t
  | Generic_join of Wcoj.prep
  | Decomposed of Ghd.prep * Plan.t option

(* Each plan node runs inside a [plan.*] span (the operator itself adds a
   nested [op.*] span), so a trace mirrors the plan tree: a join node's
   span contains both input subtrees and the join work. [observe] fires
   once per completed node, in completion (post-) order, with the node's
   measured output cardinality — the adaptive layer's harvest hook. *)
let rec run ?(ctx = Ctx.null) ?observe db plan =
  let eval () =
    match plan with
    | Plan.Atom atom -> Database.eval_atom ~ctx db atom
    | Plan.Join (l, r) ->
      let rl = run ~ctx ?observe db l in
      let rr = run ~ctx ?observe db r in
      Ops.natural_join ~ctx rl rr
    | Plan.Project (sub, kept) ->
      let rsub = run ~ctx ?observe db sub in
      (* Keep the input's column order for the retained variables; the
         variable set, not the order, is what projection means here. Build
         the kept-set once instead of scanning the list per variable. *)
      let kept_set = Hashtbl.create (List.length kept) in
      List.iter (fun v -> Hashtbl.replace kept_set v ()) kept;
      let target =
        Schema.restrict (Relation.schema rsub) ~keep:(Hashtbl.mem kept_set)
      in
      if Schema.arity target <> Hashtbl.length kept_set then
        invalid_arg "Exec: projection keeps a variable absent from its input";
      Ops.project ~ctx rsub target
  in
  let result =
    match (Ctx.telemetry ctx, plan) with
    | Some t, Plan.Join _ ->
      Telemetry.with_span t "plan.join" (fun _ -> eval ())
    | Some t, Plan.Project _ ->
      Telemetry.with_span t "plan.project" (fun _ -> eval ())
    | _, _ -> eval ()
  in
  (match observe with
  | Some f -> f plan (Relation.cardinality result)
  | None -> ());
  result

let run_generic ?ctx ?order db cq = Wcoj.evaluate ?ctx ?order db cq

let run_ghd ?ctx ?prep db cq = Ghd.evaluate ?ctx ?prep db cq

(* ------------------------------------------------------------------ *)
(* Streaming.                                                          *)

module Seen = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let charge_limits ctx n =
  match Ctx.limits ctx with Some l -> Limits.charge l n | None -> ()

let tick ctx =
  match Ctx.limits ctx with Some l -> Limits.tick_operator l | None -> ()

let check_card ctx n =
  match Ctx.limits ctx with Some l -> Limits.check_cardinality l n | None -> ()

(* Stream a plan from its root operator. Setup is eager and bounded by
   the inputs: every atom materializes (as in the ordinary evaluator)
   and every join's build side materializes through [run] — full
   kernels, spans, stats — but join {e outputs} and projections are
   never materialized; they stream, so the probe spine from the root
   down to its leftmost leaf produces tuples on demand and stopping the
   consumer stops the work. On the left-deep plans the compilers emit,
   the build sides are single atoms and the whole join pipeline
   streams. Projections dedup locally (set semantics per node, like the
   materialized path); joins of duplicate-free streams are duplicate-
   free, so the root stream needs no further dedup. *)
let rec plan_stream ~ctx db plan : Schema.t * Tuple.t Seq.t =
  match plan with
  | Plan.Atom atom ->
    let rel = Database.eval_atom ~ctx db atom in
    (Relation.schema rel, Relation.to_seq rel)
  | Plan.Join (l, r) ->
    let lschema, lseq = plan_stream ~ctx db l in
    let build = run ~ctx db r in
    let rschema = Relation.schema build in
    let shared = Schema.inter lschema rschema in
    let key_l = Schema.positions shared lschema in
    let key_r = Schema.positions shared rschema in
    let rest = Schema.diff rschema lschema in
    let rest_r = Schema.positions rest rschema in
    let schema = Schema.union lschema rest in
    tick ctx;
    let index = lazy begin
      let tbl = Seen.create (max 16 (Relation.cardinality build)) in
      Relation.iter
        (fun tup ->
          let key = Tuple.project tup key_r in
          let prev = try Seen.find tbl key with Not_found -> [] in
          Seen.replace tbl key (Tuple.project tup rest_r :: prev))
        build;
      tbl
    end in
    let produced = ref 0 in
    let seq =
      Seq.concat_map
        (fun ltup ->
          let key = Tuple.project ltup key_l in
          let matches =
            try Seen.find (Lazy.force index) key with Not_found -> []
          in
          List.to_seq
            (List.rev_map
               (fun rrest ->
                 charge_limits ctx 1;
                 incr produced;
                 check_card ctx !produced;
                 Tuple.concat ltup rrest)
               matches))
        lseq
    in
    (schema, seq)
  | Plan.Project (sub, kept) ->
    let sschema, sseq = plan_stream ~ctx db sub in
    let kept_set = Hashtbl.create (List.length kept) in
    List.iter (fun v -> Hashtbl.replace kept_set v ()) kept;
    let target = Schema.restrict sschema ~keep:(Hashtbl.mem kept_set) in
    if Schema.arity target <> Hashtbl.length kept_set then
      invalid_arg "Exec: projection keeps a variable absent from its input";
    let pos = Schema.positions target sschema in
    tick ctx;
    let seen = Seen.create 64 in
    let seq =
      Seq.filter_map
        (fun tup ->
          let out = Tuple.project tup pos in
          if Seen.mem seen out then None
          else begin
            Seen.replace seen out ();
            charge_limits ctx 1;
            check_card ctx (Seen.length seen);
            Some out
          end)
        sseq
    in
    (target, seq)

(* Constant-delay route for an acyclic query: build the atom join tree,
   reduce with the two semijoin sweeps, enumerate. [None] when cyclic. *)
let acyclic_stream ~ctx db cq =
  let hg = Hypergraph.of_query cq in
  match Jointree.build hg with
  | None -> None
  | Some jt ->
    let rels =
      Array.map
        (fun atom -> Database.eval_atom ~ctx db atom)
        (Array.of_list cq.Cq.atoms)
    in
    Some
      (Yannakakis.enumerate ~ctx ~parent:jt.Jointree.parent
         ~order:jt.Jointree.order ~free:cq.Cq.free rels)

(* First-answer instrumentation: one [ops.stream] count per opened
   cursor and the delay from cursor creation to the first yielded tuple
   into the [answers.first_delay] histogram. Purely metric-registry
   work — no span is held open across consumer pulls. *)
let observe_first ~ctx ~kind produce =
  (match Ctx.telemetry ctx with
  | None -> ()
  | Some t ->
    let reg = Telemetry.metrics t in
    Telemetry.Metrics.incr (Telemetry.Metrics.counter reg "ops.stream");
    Telemetry.Metrics.incr
      (Telemetry.Metrics.counter reg ("ops.stream." ^ kind)));
  let t0 = Unix.gettimeofday () in
  let first = ref true in
  fun emit ->
    produce (fun tup ->
        if !first then begin
          first := false;
          match Ctx.telemetry ctx with
          | None -> ()
          | Some t ->
            Telemetry.Metrics.observe
              (Telemetry.Metrics.histogram (Telemetry.metrics t)
                 "answers.first_delay")
              (Unix.gettimeofday () -. t0)
        end;
        emit tup)

let seq_to_iter seq emit = Seq.iter emit seq

let stream ?(ctx = Ctx.null) ?(semijoin = true) db cq compiled =
  let of_iter ~kind ~dedup ~schema produce =
    Cursor.of_iter ~dedup ~schema (observe_first ~ctx ~kind produce)
  in
  let stream_plan plan =
    match (if semijoin then acyclic_stream ~ctx db cq else None) with
    | Some (schema, it) -> of_iter ~kind:"yannakakis" ~dedup:true ~schema it
    | None ->
      let schema, seq = plan_stream ~ctx db plan in
      of_iter ~kind:"plan" ~dedup:false ~schema (seq_to_iter seq)
  in
  let stream_wcoj order =
    of_iter ~kind:"wcoj" ~dedup:false ~schema:(Schema.of_list cq.Cq.free)
      (fun emit -> Wcoj.iter ~ctx ~order db cq emit)
  in
  match compiled with
  | Generic_join prep -> stream_wcoj prep.Wcoj.order
  | Decomposed (prep, plan) -> (
    match (prep.Ghd.decision, plan) with
    | Ghd.Ghd, _ ->
      (* Setup (bags, sweeps, indexes) runs lazily inside the producer on
         the first pull, so parking an unpulled cursor costs nothing. *)
      of_iter ~kind:"ghd" ~dedup:true ~schema:(Schema.of_list cq.Cq.free)
        (fun emit ->
          let _, it = Ghd.enumerate ~ctx ~prep db cq in
          it emit)
    | Ghd.Generic, _ -> stream_wcoj prep.Ghd.var_order
    | Ghd.Bucket, Some plan -> stream_plan plan
    | Ghd.Bucket, None ->
      stream_plan
        (Bucket.compile ~order:(Array.of_list prep.Ghd.var_order) cq))
  | Plan plan -> stream_plan plan

(* The Boolean answer streams: one pull decides nonemptiness, so an
   existence check never pays for the full result. The compiled plan's
   own stream is used (never the semijoin reroute — the caller may hand
   us a deliberately approximate mini-bucket plan, and this must answer
   exactly what [run plan] would). *)
let nonempty ?(ctx = Ctx.null) db plan =
  let schema, seq = plan_stream ~ctx db plan in
  ignore schema;
  match seq () with Seq.Nil -> false | Seq.Cons _ -> true
