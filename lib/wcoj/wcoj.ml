module Agm = Agm
module Trie = Trie
module Cq = Conjunctive.Cq
module Database = Conjunctive.Database
module Joingraph = Conjunctive.Joingraph
module Relation = Relalg.Relation
module Arena = Relalg.Arena
module Schema = Relalg.Schema
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Stats = Relalg.Stats

type decision = Generic | Binary

type prep = {
  order : int list;
  agm : Agm.t;
  induced_width : int;
  domain_estimate : int;
  binary_bound_log2 : float;
  decision : decision;
}

let decision_name = function Generic -> "generic" | Binary -> "binary"

(* The binary-plan side of the gate needs a per-variable domain size; the
   largest distinct-value count of any base-relation column is a sound,
   cheap stand-in (base relations are small — the data complexity setting
   of the paper). *)
let domain_estimate db cq =
  let seen = Hashtbl.create 7 in
  let best = ref 1 in
  List.iter
    (fun a ->
      if not (Hashtbl.mem seen a.Cq.rel) then begin
        Hashtbl.replace seen a.Cq.rel ();
        let rel = Database.find db a.Cq.rel in
        let arity = Relation.arity rel in
        if arity > 0 then begin
          let cols = Array.init arity (fun _ -> Hashtbl.create 16) in
          Relation.iter
            (fun tup ->
              Array.iteri
                (fun c h -> Hashtbl.replace h (Relalg.Tuple.get tup c) ())
                cols)
            rel;
          Array.iter (fun h -> best := max !best (Hashtbl.length h)) cols
        end
      end)
    cq.Cq.atoms;
  !best

let prepare ?rng db cq =
  let jg = Joingraph.build cq in
  let initial =
    List.map (Hashtbl.find jg.Joingraph.to_vertex) cq.Cq.free
  in
  let ord = Graphlib.Order.mcs ~initial ?rng jg.Joingraph.graph in
  let induced_width = Graphlib.Order.induced_width jg.Joingraph.graph ord in
  let order = Array.to_list (Joingraph.variable_order_of jg ord) in
  let agm = Agm.fractional_edge_cover db cq in
  let d = domain_estimate db cq in
  let binary_bound_log2 =
    float_of_int (induced_width + 1) *. Float.log2 (float_of_int (max 2 d))
  in
  let decision =
    match Sys.getenv_opt "PPR_WCOJ_GATE" with
    | Some "generic" -> Generic
    | Some "binary" -> Binary
    | _ -> if agm.Agm.bound_log2 <= binary_bound_log2 then Generic else Binary
  in
  { order; agm; induced_width; domain_estimate = d; binary_bound_log2; decision }

let bounds ?rng db cq =
  let p = prepare ?rng db cq in
  (p.binary_bound_log2, p.agm.Agm.bound_log2)

(* ------------------------------------------------------------------ *)
(* The evaluator.                                                      *)

let validate_order cq order =
  if List.sort compare order <> Cq.vars cq then
    invalid_arg "Wcoj.evaluate: order is not a permutation of the query's variables";
  let rec prefix free ord =
    match (free, ord) with
    | [], _ -> ()
    | f :: fs, o :: os when f = o -> prefix fs os
    | _ ->
      invalid_arg
        "Wcoj.evaluate: order must start with the free variables in their \
         declared order"
  in
  prefix cq.Cq.free order;
  List.length order

(* Index the materialized atoms as sorted tries along [order]:
   [parts.(d)] lists the (trie, level) pairs whose variable binds at
   depth [d]. *)
let build_index ~span ~order ~k rels =
  let depth_of = Hashtbl.create (max 1 k) in
  List.iteri (fun i v -> Hashtbl.replace depth_of v i) order;
  let tries =
    span "op.wcoj.index" [] (fun () ->
        Array.of_list
          (List.map (Trie.build ~depth_of_var:(Hashtbl.find depth_of)) rels))
  in
  let parts = Array.make (max 1 k) [] in
  Array.iteri
    (fun i tr ->
      for l = 0 to Trie.width tr - 1 do
        let d = Trie.depth_at tr l in
        parts.(d) <- (i, l) :: parts.(d)
      done)
    tries;
  let parts = Array.map (fun l -> Array.of_list (List.rev l)) parts in
  if k > 0 then
    Array.iteri
      (fun d p ->
        if Array.length p = 0 then
          invalid_arg
            (Printf.sprintf "Wcoj.evaluate: variable %d occurs in no atom"
               (List.nth order d)))
      parts;
  (tries, parts)

(* The search state over the read-only tries: per-trie range stacks
   ([los]/[his] level [l] holds the row window consistent with the
   first [l] bound variables of that trie) plus the current variable
   binding. Returns the enumeration from a given depth; [enumerate 0]
   runs the whole search. *)
let make_engine ~tries ~parts ~k ~n_free ~tick ~emit =
  let los = Array.map (fun tr -> Array.make (Trie.width tr + 1) 0) tries in
  let his =
    Array.map
      (fun tr ->
        let a = Array.make (Trie.width tr + 1) 0 in
        a.(0) <- Trie.rows tr;
        a)
      tries
  in
  let binding = Array.make (max 1 k) 0 in
  (* Leapfrog the participants of depth [d] over their current
     windows. [on_value] runs with [binding.(d)] set and the matching
     sub-windows pushed; returning [true] stops the scan early (the
     existence search found its witness). *)
  let scan d on_value =
    let ps = parts.(d) in
    let m = Array.length ps in
    let cur = Array.make m 0 and hi = Array.make m 0 in
    let exhausted = ref false in
    for j = 0 to m - 1 do
      let i, l = ps.(j) in
      cur.(j) <- los.(i).(l);
      hi.(j) <- his.(i).(l);
      if cur.(j) >= hi.(j) then exhausted := true
    done;
    let stopped = ref false in
    while not (!stopped || !exhausted) do
      let x = ref min_int in
      for j = 0 to m - 1 do
        let i, l = ps.(j) in
        let v = Trie.value tries.(i) ~level:l ~row:cur.(j) in
        if v > !x then x := v
      done;
      let aligned = ref true in
      for j = 0 to m - 1 do
        if not !exhausted then begin
          let i, l = ps.(j) in
          let p = Trie.seek tries.(i) ~level:l ~lo:cur.(j) ~hi:hi.(j) !x in
          cur.(j) <- p;
          if p >= hi.(j) then exhausted := true
          else if Trie.value tries.(i) ~level:l ~row:p > !x then
            aligned := false
        end
      done;
      if (not !exhausted) && !aligned then begin
        tick ();
        binding.(d) <- !x;
        for j = 0 to m - 1 do
          let i, l = ps.(j) in
          los.(i).(l + 1) <- cur.(j);
          his.(i).(l + 1) <-
            Trie.strictly_above tries.(i) ~level:l ~lo:cur.(j) ~hi:hi.(j) !x
        done;
        if on_value () then stopped := true
        else begin
          (* Advance the first participant past x; the next round
             re-aligns the others. *)
          let i0, l0 = ps.(0) in
          cur.(0) <- his.(i0).(l0 + 1);
          if cur.(0) >= hi.(0) then exhausted := true
        end
      end
    done;
    !stopped
  in
  (* Depths >= n_free only need one witness: stop at first success. *)
  let rec extension d = d = k || scan d (fun () -> extension (d + 1)) in
  (* Depths < n_free enumerate every value; at the free/bound frontier
     each free prefix is emitted iff some extension exists. *)
  let rec enumerate d =
    if d = n_free then begin
      if extension d then emit binding
    end
    else
      ignore
        (scan d (fun () ->
             enumerate (d + 1);
             false))
  in
  enumerate

let evaluate ?(ctx = Ctx.null) ?order db cq =
  let order =
    match order with
    | Some o -> o
    | None -> Array.to_list (Joingraph.mcs_variable_order cq)
  in
  let k = validate_order cq order in
  let n_free = List.length cq.Cq.free in
  let telemetry = Ctx.telemetry ctx in
  let limits = Ctx.limits ctx in
  let stats = Ctx.stats ctx in
  let span name attrs f =
    match telemetry with
    | None -> f ()
    | Some t -> Telemetry.with_span ~attrs t name (fun _ -> f ())
  in
  (match limits with Some l -> Limits.tick_operator l | None -> ());
  span "op.wcoj.join"
    [
      ("vars", Telemetry.Attr.Int k);
      ("atoms", Telemetry.Attr.Int (List.length cq.Cq.atoms));
      ("free", Telemetry.Attr.Int n_free);
    ]
  @@ fun () ->
  (match telemetry with
  | Some t ->
    Telemetry.Metrics.incr
      (Telemetry.Metrics.counter (Telemetry.metrics t) "ops.wcoj")
  | None -> ());
  let rels = List.map (fun a -> Database.eval_atom ~ctx db a) cq.Cq.atoms in
  let out = Relation.create (Schema.of_list cq.Cq.free) in
  if not (List.exists Relation.is_empty rels) then begin
    let tries, parts = build_index ~span ~order ~k rels in
    let tick () =
      match limits with Some l -> Limits.charge l 1 | None -> ()
    in
    (* Leapfrog emits each free prefix once (see [iter]), so the prefix
       is written straight into a staged row and appended undeduped. *)
    let aout = Relation.arena out in
    let emit binding =
      let base = Arena.stage aout in
      Array.blit binding 0 (Arena.data aout) base n_free;
      Arena.append_staged aout;
      match limits with
      | Some l -> Limits.check_cardinality l (Relation.cardinality out)
      | None -> ()
    in
    make_engine ~tries ~parts ~k ~n_free ~tick ~emit 0
  end;
  (match stats with
  | Some s ->
    Stats.record_join s;
    Stats.record_relation s ~arity:(Relation.arity out)
      ~cardinality:(Relation.cardinality out)
  | None -> ());
  out

(* Streaming evaluation: the same search as [evaluate], but each
   accepted free prefix is handed to [emit] instead of being
   materialized. The leapfrog scan enumerates each depth's values in
   strictly increasing order, so emissions are distinct and
   lexicographic along [order]'s free prefix — no dedup state is needed
   downstream. Setup — atom scans and the trie index — runs inside an
   [op.wcoj.stream] span; the enumeration itself runs outside any span, because a
   consumer that suspends mid-stream (an effect-inverted cursor) must
   not hold a span open across pulls. *)
let iter ?(ctx = Ctx.null) ?order db cq emit =
  let order =
    match order with
    | Some o -> o
    | None -> Array.to_list (Joingraph.mcs_variable_order cq)
  in
  let k = validate_order cq order in
  let n_free = List.length cq.Cq.free in
  let telemetry = Ctx.telemetry ctx in
  let limits = Ctx.limits ctx in
  let span name attrs f =
    match telemetry with
    | None -> f ()
    | Some t -> Telemetry.with_span ~attrs t name (fun _ -> f ())
  in
  (match limits with Some l -> Limits.tick_operator l | None -> ());
  let engine =
    span "op.wcoj.stream"
      [
        ("vars", Telemetry.Attr.Int k);
        ("atoms", Telemetry.Attr.Int (List.length cq.Cq.atoms));
        ("free", Telemetry.Attr.Int n_free);
      ]
      (fun () ->
        (match telemetry with
        | Some t ->
          Telemetry.Metrics.incr
            (Telemetry.Metrics.counter (Telemetry.metrics t) "ops.wcoj")
        | None -> ());
        let rels =
          List.map (fun a -> Database.eval_atom ~ctx db a) cq.Cq.atoms
        in
        if List.exists Relation.is_empty rels then None
        else
          let tries, parts = build_index ~span ~order ~k rels in
          Some (make_engine ~tries ~parts ~k ~n_free))
  in
  match engine with
  | None -> ()
  | Some mk ->
    let tick () =
      match limits with Some l -> Limits.charge l 1 | None -> ()
    in
    let emitted = ref 0 in
    let emit binding =
      incr emitted;
      (match limits with
      | Some l -> Limits.check_cardinality l !emitted
      | None -> ());
      emit (Array.sub binding 0 n_free)
    in
    mk ~tick ~emit 0
