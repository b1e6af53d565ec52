module Key_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

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
   into staged rows of the output arena, committed with a single dedup
   hash. The single-attribute key case — the common one for the paper's
   coloring queries — gets its own loops with the FNV step inlined on
   one value. *)

let fnv_seed = 0x1000193
let fnv_prime = 0x100000001b3
let hash1 v = ((fnv_seed lxor v) * fnv_prime) land max_int

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let hash_join limits out aout ~ar ~as_ ~key_r ~key_s ~rest_s =
  let build_on_r = Arena.count ar <= Arena.count as_ in
  let ab, key_b = if build_on_r then (ar, key_r) else (as_, key_s) in
  let ap, key_p = if build_on_r then (as_, key_s) else (ar, key_r) in
  let nb = Arena.count ab and np = Arena.count ap in
  let db = Arena.data ab and dp = Arena.data ap in
  let wb = Arena.arity ab and wp = Arena.arity ap in
  let dr = Arena.data ar and wr = Arena.arity ar in
  let ds = Arena.data as_ and ws = Arena.arity as_ in
  let klen = Array.length key_b in
  let nrest = Array.length rest_s in
  let slot_len = pow2_at_least (max 16 (2 * nb)) 16 in
  let mask = slot_len - 1 in
  let slots = Array.make slot_len 0 in
  let next = Array.make (max 1 nb) (-1) in
  let emit r_row s_row =
    let base = Arena.stage aout in
    let od = Arena.data aout in
    Array.blit dr (r_row * wr) od base wr;
    for k = 0 to nrest - 1 do
      Array.unsafe_set od (base + wr + k)
        (Array.unsafe_get ds ((s_row * ws) + Array.unsafe_get rest_s k))
    done;
    if Arena.commit_staged aout then charge_new limits out
  in
  let rec emit_chain brow prow =
    if brow >= 0 then begin
      if build_on_r then emit brow prow else emit prow brow;
      emit_chain (Array.unsafe_get next brow) prow
    end
  in
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
        if s = 0 then probing := false
        else if Array.unsafe_get db (((s - 1) * wb) + kb0) = v then begin
          emit_chain (s - 1) prow;
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
        if s = 0 then probing := false
        else if keys_equal_bp ((s - 1) * wb) pbase then begin
          emit_chain (s - 1) prow;
          probing := false
        end
        else i := (!i + 1) land mask
      done
    done
  end

(* Hash join. The build side is the smaller input; the probe side streams.
   Output columns are always [r] then [s \ r], regardless of which side was
   built on, so the operator is deterministic for callers. *)
let natural_join ?(ctx = Ctx.null) r s =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.join.hash" in
  tick limits;
  Option.iter Stats.record_join stats;
  let sr = Relation.schema r and ss = Relation.schema s in
  let common = Schema.inter sr ss in
  let out_schema = Schema.union sr ss in
  let key_r = Schema.positions common sr in
  let key_s = Schema.positions common ss in
  let rest_s = Schema.positions (Schema.diff ss sr) ss in
  let out =
    Relation.create
      ~size_hint:(max 16 (max (Relation.cardinality r) (Relation.cardinality s)))
      out_schema
  in
  let ar = Relation.arena r and as_ = Relation.arena s in
  let aout = Relation.arena out in
  hash_join limits out aout ~ar ~as_ ~key_r ~key_s ~rest_s;
  note_result stats limits out;
  finish_join sp r s out;
  out

let product ?ctx r s =
  if not (Schema.is_disjoint (Relation.schema r) (Relation.schema s)) then
    invalid_arg "Ops.product: schemas intersect";
  natural_join ?ctx r s

let equijoin ?(ctx = Ctx.null) ~on r s =
  if not (Schema.is_disjoint (Relation.schema r) (Relation.schema s)) then
    invalid_arg "Ops.equijoin: schemas intersect";
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.join.equi" in
  tick limits;
  Option.iter Stats.record_join stats;
  let sr = Relation.schema r and ss = Relation.schema s in
  let key_r = Array.of_list (List.map (fun (a, _) -> Schema.index sr a) on) in
  let key_s = Array.of_list (List.map (fun (_, b) -> Schema.index ss b) on) in
  let out =
    Relation.create ~size_hint:(max 16 (Relation.cardinality r))
      (Schema.union sr ss)
  in
  let table = Key_table.create (max 16 (Relation.cardinality s)) in
  Relation.iter
    (fun tup ->
      let key = Tuple.project tup key_s in
      let bucket = try Key_table.find table key with Not_found -> [] in
      Key_table.replace table key (tup :: bucket))
    s;
  Relation.iter
    (fun tup ->
      match Key_table.find_opt table (Tuple.project tup key_r) with
      | None -> ()
      | Some bucket ->
        List.iter (fun mate -> guarded_add limits out (Tuple.concat tup mate)) bucket)
    r;
  note_result stats limits out;
  finish_join sp r s out;
  out

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

(* Semi/antijoin: hash the join-key projection of [s], filter [r]. *)
let key_set s key_positions =
  let keys = Key_table.create (max 16 (Relation.cardinality s)) in
  Relation.iter
    (fun tup -> Key_table.replace keys (Tuple.project tup key_positions) ())
    s;
  keys

let semijoin ?ctx r s =
  let common = Schema.inter (Relation.schema r) (Relation.schema s) in
  let key_r = Schema.positions common (Relation.schema r) in
  let key_s = Schema.positions common (Relation.schema s) in
  let keys = key_set s key_s in
  select_named "op.semijoin" ?ctx r (fun tup ->
      Key_table.mem keys (Tuple.project tup key_r))

let antijoin ?ctx r s =
  let common = Schema.inter (Relation.schema r) (Relation.schema s) in
  let key_r = Schema.positions common (Relation.schema r) in
  let key_s = Schema.positions common (Relation.schema s) in
  let keys = key_set s key_s in
  select_named "op.antijoin" ?ctx r (fun tup ->
      not (Key_table.mem keys (Tuple.project tup key_r)))
