(* Every operator spends one unit of fuel up front; the tick also polls
   the deadline and chaos hook so aborts land at operator boundaries even
   when the operator itself produces nothing. *)
let tick = function Some l -> Limits.tick_operator l | None -> ()

let note_result stats limits rel =
  (match limits with
  | Some l -> Limits.check_cardinality l (Relation.cardinality rel)
  | None -> ());
  match stats with
  | Some st ->
    Stats.record_relation st ~arity:(Relation.arity rel)
      ~cardinality:(Relation.cardinality rel)
  | None -> ()

(* Charge limits for one freshly materialized tuple. *)
let charge_new limits rel =
  match limits with
  | Some l ->
    Limits.charge l 1;
    Limits.check_cardinality l (Relation.cardinality rel)
  | None -> ()

let guarded_add limits rel tup =
  if Relation.add rel tup then charge_new limits rel

(* Telemetry is threaded as an option so the disabled path is one match
   on [None]: no span, no attribute list, no clock read. An operator
   that aborts mid-loop leaves its span open; the enclosing span's stop
   closes it (marked [unwound]), so traces stay well-formed. *)
let span telemetry name =
  match telemetry with
  | None -> None
  | Some t -> Some (t, Telemetry.start t name)

let fanout_bounds = [| 0.05; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 32.0; 128.0 |]

let finish_join sp r s out =
  match sp with
  | None -> ()
  | Some (t, sp) ->
    let left = Relation.cardinality r and right = Relation.cardinality s in
    let produced = Relation.cardinality out in
    Telemetry.Span.add_attrs sp
      [
        ("rows.left", Telemetry.Attr.Int left);
        ("rows.right", Telemetry.Attr.Int right);
        ("rows.out", Telemetry.Attr.Int produced);
        ("arity.out", Telemetry.Attr.Int (Relation.arity out));
        ("hash.probes", Telemetry.Attr.Int (max left right));
      ];
    Telemetry.Metrics.observe
      (Telemetry.Metrics.histogram ~bounds:fanout_bounds (Telemetry.metrics t)
         "ops.join_fanout")
      (float_of_int produced /. float_of_int (max 1 (max left right)));
    Telemetry.stop t sp

let finish_unary sp r out =
  match sp with
  | None -> ()
  | Some (t, sp) ->
    Telemetry.Span.add_attrs sp
      [
        ("rows.in", Telemetry.Attr.Int (Relation.cardinality r));
        ("rows.out", Telemetry.Attr.Int (Relation.cardinality out));
        ("arity.out", Telemetry.Attr.Int (Relation.arity out));
      ];
    Telemetry.stop t sp

(* ------------------------------------------------------------------ *)
(* Hash-join kernel.

   The join never materializes a tuple: the build index hashes the key
   columns straight out of the build arena (slots hold [row + 1]; rows
   with equal keys are chained through [next]), probes hash the probe
   arena's key columns in place, and matches are written cell-by-cell
   into staged rows of the output arena. The single-attribute key case —
   the common one for the paper's coloring queries — gets its own loops
   with the FNV step inlined on one value.

   Every kernel built on it appends its output without a dedup probe
   ({!Arena.append_staged}): a join of two sets pairs distinct rows, and
   a semijoin or antijoin keeps a subset of a set, so no output row can
   repeat. *)

let fnv_seed = 0x1000193
let fnv_prime = 0x100000001b3
let hash1 v = ((fnv_seed lxor v) * fnv_prime) land max_int

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* Index the build arena [ab] on its [key_b] columns, then stream the
   probe arena [ap]: [hit next b p] runs with the head [b] of the chain
   of build rows whose key equals probe row [p]'s (follow [next.(b)] for
   the rest, -1 ends the chain), [miss p] when there is none. *)
let index_probe ~ab ~key_b ~ap ~key_p ~hit ~miss =
  let nb = Arena.count ab and np = Arena.count ap in
  let db = Arena.data ab and dp = Arena.data ap in
  let wb = Arena.arity ab and wp = Arena.arity ap in
  let klen = Array.length key_b in
  let slot_len = pow2_at_least (max 16 (2 * nb)) 16 in
  let mask = slot_len - 1 in
  let slots = Array.make slot_len 0 in
  let next = Array.make (max 1 nb) (-1) in
  if klen = 1 then begin
    let kb0 = key_b.(0) and kp0 = key_p.(0) in
    for row = 0 to nb - 1 do
      let v = Array.unsafe_get db ((row * wb) + kb0) in
      let i = ref (hash1 v land mask) in
      let placing = ref true in
      while !placing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then begin
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else if Array.unsafe_get db (((s - 1) * wb) + kb0) = v then begin
          Array.unsafe_set next row (s - 1);
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else i := (!i + 1) land mask
      done
    done;
    for prow = 0 to np - 1 do
      let v = Array.unsafe_get dp ((prow * wp) + kp0) in
      let i = ref (hash1 v land mask) in
      let probing = ref true in
      while !probing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then begin
          miss prow;
          probing := false
        end
        else if Array.unsafe_get db (((s - 1) * wb) + kb0) = v then begin
          hit next (s - 1) prow;
          probing := false
        end
        else i := (!i + 1) land mask
      done
    done
  end
  else begin
    let hash_key d base cols =
      let h = ref fnv_seed in
      for k = 0 to klen - 1 do
        h := (!h lxor Array.unsafe_get d (base + Array.unsafe_get cols k))
             * fnv_prime
      done;
      !h land max_int
    in
    let keys_equal_bb b1 b2 =
      let rec go k =
        k >= klen
        || Array.unsafe_get db (b1 + Array.unsafe_get key_b k)
           = Array.unsafe_get db (b2 + Array.unsafe_get key_b k)
           && go (k + 1)
      in
      go 0
    in
    let keys_equal_bp bbase pbase =
      let rec go k =
        k >= klen
        || Array.unsafe_get db (bbase + Array.unsafe_get key_b k)
           = Array.unsafe_get dp (pbase + Array.unsafe_get key_p k)
           && go (k + 1)
      in
      go 0
    in
    for row = 0 to nb - 1 do
      let base = row * wb in
      let i = ref (hash_key db base key_b land mask) in
      let placing = ref true in
      while !placing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then begin
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else if keys_equal_bb ((s - 1) * wb) base then begin
          Array.unsafe_set next row (s - 1);
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else i := (!i + 1) land mask
      done
    done;
    for prow = 0 to np - 1 do
      let pbase = prow * wp in
      let i = ref (hash_key dp pbase key_p land mask) in
      let probing = ref true in
      while !probing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then begin
          miss prow;
          probing := false
        end
        else if keys_equal_bp ((s - 1) * wb) pbase then begin
          hit next (s - 1) prow;
          probing := false
        end
        else i := (!i + 1) land mask
      done
    done
  end

(* A join on explicit key columns: the whole [r] row, then [s]'s
   [rest_s] columns, per matching pair. Builds on the smaller side and
   appends every match (see above). *)
let join_op name ctx r s ~key_r ~key_s ~rest_s out_schema =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) name in
  tick limits;
  Option.iter Stats.record_join stats;
  let out =
    Relation.create
      ~size_hint:(max 16 (max (Relation.cardinality r) (Relation.cardinality s)))
      out_schema
  in
  let ar = Relation.arena r and as_ = Relation.arena s in
  let aout = Relation.arena out in
  let build_on_r = Arena.count ar <= Arena.count as_ in
  let ab, key_b = if build_on_r then (ar, key_r) else (as_, key_s) in
  let ap, key_p = if build_on_r then (as_, key_s) else (ar, key_r) in
  let dr = Arena.data ar and wr = Arena.arity ar in
  let ds = Arena.data as_ and ws = Arena.arity as_ in
  let nrest = Array.length rest_s in
  let emit r_row s_row =
    let base = Arena.stage aout in
    let od = Arena.data aout in
    let rbase = r_row * wr in
    for j = 0 to wr - 1 do
      Array.unsafe_set od (base + j) (Array.unsafe_get dr (rbase + j))
    done;
    for k = 0 to nrest - 1 do
      Array.unsafe_set od (base + wr + k)
        (Array.unsafe_get ds ((s_row * ws) + Array.unsafe_get rest_s k))
    done;
    Arena.append_staged aout;
    charge_new limits out
  in
  let rec emit_chain next brow prow =
    if brow >= 0 then begin
      if build_on_r then emit brow prow else emit prow brow;
      emit_chain next (Array.unsafe_get next brow) prow
    end
  in
  index_probe ~ab ~key_b ~ap ~key_p ~hit:emit_chain ~miss:ignore;
  note_result stats limits out;
  finish_join sp r s out;
  out

(* Hash join. The build side is the smaller input; the probe side streams.
   Output columns are always [r] then [s \ r], regardless of which side was
   built on, so the operator is deterministic for callers. *)
let natural_join ?(ctx = Ctx.null) r s =
  let sr = Relation.schema r and ss = Relation.schema s in
  let common = Schema.inter sr ss in
  join_op "op.join.hash" ctx r s ~key_r:(Schema.positions common sr)
    ~key_s:(Schema.positions common ss)
    ~rest_s:(Schema.positions (Schema.diff ss sr) ss)
    (Schema.union sr ss)

let product ?ctx r s =
  if not (Schema.is_disjoint (Relation.schema r) (Relation.schema s)) then
    invalid_arg "Ops.product: schemas intersect";
  natural_join ?ctx r s

let equijoin ?(ctx = Ctx.null) ~on r s =
  if not (Schema.is_disjoint (Relation.schema r) (Relation.schema s)) then
    invalid_arg "Ops.equijoin: schemas intersect";
  let sr = Relation.schema r and ss = Relation.schema s in
  let key_r = Array.of_list (List.map (fun (a, _) -> Schema.index sr a) on) in
  let key_s = Array.of_list (List.map (fun (_, b) -> Schema.index ss b) on) in
  join_op "op.join.equi" ctx r s ~key_r ~key_s
    ~rest_s:(Array.init (Relation.arity s) Fun.id)
    (Schema.union sr ss)

let project ?(ctx = Ctx.null) r sub =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.project" in
  tick limits;
  Option.iter Stats.record_projection stats;
  let positions = Schema.positions sub (Relation.schema r) in
  let out =
    Relation.create ~size_hint:(max 16 (Relation.cardinality r)) sub
  in
  (* Gather the kept columns of each row straight into a staged output
     row — no intermediate tuple. *)
  let ain = Relation.arena r and aout = Relation.arena out in
  let d = Arena.data ain and w = Arena.arity ain in
  let np = Array.length positions in
  for row = 0 to Arena.count ain - 1 do
    let base = row * w in
    let obase = Arena.stage aout in
    let od = Arena.data aout in
    for k = 0 to np - 1 do
      Array.unsafe_set od (obase + k)
        (Array.unsafe_get d (base + Array.unsafe_get positions k))
    done;
    if Arena.commit_staged aout then charge_new limits out
  done;
  note_result stats limits out;
  finish_unary sp r out;
  out

let project_away ?ctx r dropped =
  let keep a = not (List.mem a dropped) in
  let sub = Schema.restrict (Relation.schema r) ~keep in
  project ?ctx r sub

let select_named name ?(ctx = Ctx.null) r pred =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) name in
  tick limits;
  Option.iter Stats.record_selection stats;
  let out =
    Relation.create ~size_hint:(max 16 (Relation.cardinality r))
      (Relation.schema r)
  in
  Relation.iter (fun tup -> if pred tup then guarded_add limits out tup) r;
  note_result stats limits out;
  finish_unary sp r out;
  out

let select ?ctx r pred = select_named "op.select" ?ctx r pred

let select_eq ?ctx r attr value =
  let i = Schema.index (Relation.schema r) attr in
  select ?ctx r (fun tup -> Tuple.get tup i = value)

let select_attr_eq ?ctx r a b =
  let ia = Schema.index (Relation.schema r) a in
  let ib = Schema.index (Relation.schema r) b in
  select ?ctx r (fun tup -> Tuple.get tup ia = Tuple.get tup ib)

let rename r mapping =
  let fresh =
    Array.map
      (fun a -> match List.assoc_opt a mapping with Some b -> b | None -> a)
      (Schema.to_array (Relation.schema r))
  in
  let out =
    Relation.create ~size_hint:(Relation.cardinality r)
      (Schema.of_array fresh)
  in
  Relation.iter (fun tup -> ignore (Relation.add out tup)) r;
  out

let aligned name r s =
  if not (Schema.equal_as_set (Relation.schema r) (Relation.schema s)) then
    invalid_arg (name ^ ": schemas are not permutations of each other");
  Relation.reorder s (Relation.schema r)

let union ?(ctx = Ctx.null) r s =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.union" in
  tick limits;
  let s = aligned "Ops.union" r s in
  let out = Relation.copy r in
  Relation.iter (fun tup -> guarded_add limits out tup) s;
  note_result stats limits out;
  finish_unary sp r out;
  out

let inter ?ctx r s =
  let s = aligned "Ops.inter" r s in
  select_named "op.inter" ?ctx r (fun tup -> Relation.mem s tup)

let diff ?ctx r s =
  let s = aligned "Ops.diff" r s in
  select_named "op.diff" ?ctx r (fun tup -> not (Relation.mem s tup))

(* Semi/antijoin: index [s] on the shared columns, probe [r]'s rows in
   place and append the ones that do (or do not) find a match. *)
let filter_join name keep_matched ?(ctx = Ctx.null) r s =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) name in
  tick limits;
  Option.iter Stats.record_selection stats;
  let sr = Relation.schema r and ss = Relation.schema s in
  let common = Schema.inter sr ss in
  let out = Relation.create ~size_hint:(max 16 (Relation.cardinality r)) sr in
  let ar = Relation.arena r and aout = Relation.arena out in
  let dr = Arena.data ar and w = Arena.arity ar in
  let keep prow =
    let base = Arena.stage aout in
    Array.blit dr (prow * w) (Arena.data aout) base w;
    Arena.append_staged aout;
    charge_new limits out
  in
  let on_hit, on_miss =
    if keep_matched then (keep, ignore) else (ignore, keep)
  in
  index_probe ~ab:(Relation.arena s) ~key_b:(Schema.positions common ss) ~ap:ar
    ~key_p:(Schema.positions common sr)
    ~hit:(fun _ _ prow -> on_hit prow)
    ~miss:on_miss;
  note_result stats limits out;
  finish_unary sp r out;
  out

let semijoin ?ctx r s = filter_join "op.semijoin" true ?ctx r s
let antijoin ?ctx r s = filter_join "op.antijoin" false ?ctx r s
