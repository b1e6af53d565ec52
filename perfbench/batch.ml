(* The closed-loop batch workloads: one client runs query text through
   parse -> prepare -> run -> shape, one query at a time.

   paper-3color  Figure 3's family (random 3-COLOR, order 16, densities
                 0.5-8, Boolean and 20%-free heads) under the six
                 methods and no domain pool: compile and gate time are
                 a large share of each query.
   structured-wide  structured families with 10^2-10^5-row answers
                 under the three decomposition-aware methods, with a
                 domain pool in the context: join, project and dedup
                 kernels and GHD bags do nearly all the work. *)

open Common
module Driver = Ppr_core.Driver
module Encode = Conjunctive.Encode
module Generators = Graphlib.Generators
module Rng = Graphlib.Rng

type instance = {
  label : string;
  cq : Cq.t;  (** as generated; the reference is computed from it *)
  text : string;  (** what the client submits *)
  reference : answer;  (** bucket elimination, computed during setup *)
}

type item = { inst : instance; meth_name : string; meth : Driver.meth }

type spec = {
  methods : (string * Driver.meth) list;
  instances : seed:int -> (string * Cq.t) list;
  pooled : bool;
  trace_share : float;
      (** share of the shuffled items the traced run replays, so that
          its untraced, traced and forced-route passes fit one run *)
  pass_seconds : float;
      (** nominal length of one pass on a 2-core runner: a run makes
          [--seconds / pass_seconds] passes, the same work whatever the
          code's speed, so a faster engine shortens the run instead of
          growing its heap with extra passes *)
}

(* ------------------------------------------------------------------ *)
(* Workload definitions.                                               *)

let coloring ~mode ~seed g =
  Encode.coloring_query_of_graph ~mode ~rng:(Rng.make seed) g

let paper_3color =
  let densities = [ 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 ] in
  let modes = [ ("bool", Encode.Boolean); ("free20", Encode.Fraction 0.2) ] in
  let order = 16 and replicas = 3 in
  (* The graphs are Figure 3's own instances at scale 0.8 (the Figures
     seeds 1000-1002, the same graphs in both panels); the workload seed
     draws the free variables of the 20%-free panel and the run order.
     With graphs drawn from the workload seed, a run's cost would hinge
     on how many GHD misroutes its few dozen graphs happen to contain. *)
  let instances ~seed =
    List.concat_map
      (fun (mode_name, mode) ->
        List.concat_map
          (fun density ->
            List.init replicas (fun r ->
                let rng = Rng.make (1000 + r) in
                let m =
                  max 1
                    (min
                       (int_of_float (Float.round (density *. float_of_int order)))
                       (order * (order - 1) / 2))
                in
                let g = Generators.random ~rng ~n:order ~m in
                let free_rng =
                  Rng.make ((seed * 7919) + (r * 131) + int_of_float (density *. 10.0))
                in
                let cq = Encode.coloring_query_of_graph ~mode ~rng:free_rng g in
                (Printf.sprintf "random n=%d d=%g %s #%d" order density mode_name r, cq)))
          densities)
      modes
  in
  {
    methods =
      [
        ("straightforward", Driver.Straightforward);
        ("early-proj", Driver.Early_projection);
        ("reordering", Driver.Reorder);
        ("bucket-elim", Driver.Bucket_elimination);
        ("wcoj", Driver.Wcoj);
        ("ghd", Driver.Ghd);
      ];
    instances;
    pooled = false;
    trace_share = 0.25;
    pass_seconds = 30.0;
  }

let structured_wide =
  let all_free = Encode.Fraction 1.0 and free20 = Encode.Fraction 0.2 in
  let families =
    [
      ("path 14 all-free", all_free, Generators.path 14);
      ("grid 5x6 20%-free", free20, Generators.grid 5 6);
      ("augmented ladder 12 20%-free", free20, Generators.augmented_ladder 12);
      ("ladder 14 40%-free", Encode.Fraction 0.4, Generators.ladder 14);
      ("augmented circular ladder 9 20%-free", free20,
        Generators.augmented_circular_ladder 9);
      ("augmented path 10 50%-free", Encode.Fraction 0.5,
        Generators.augmented_path 10);
    ]
  in
  (* Which variables are free decides most of an instance's cost (a
     factor of ten on one family), so the free sets come from the fixed
     Figures seeds, two draws per partially-free family; the workload
     seed sets the run order. *)
  let instances ~seed:_ =
    List.concat_map
      (fun (label, mode, g) ->
        let draws = if mode = all_free then [ 1000 ] else [ 1000; 1001 ] in
        List.map
          (fun s -> (Printf.sprintf "%s #%d" label (s - 1000), coloring ~mode ~seed:s g))
          draws)
      families
  in
  {
    methods =
      [
        ("bucket-elim", Driver.Bucket_elimination);
        ("wcoj", Driver.Wcoj);
        ("ghd", Driver.Ghd);
      ];
    instances;
    pooled = true;
    trace_share = 1.0;
    pass_seconds = 3.75;
  }

(* ------------------------------------------------------------------ *)
(* Setup.                                                              *)

(* Every run is under the library's default guards, not the Figures
   caps (300k tuples per relation, 3M per run): under those, GHD
   misroutes abort on some paper-3color instances, and the benchmark has
   no failing operations. The misroute's whole cost shows in latency and
   gate.regret instead. *)
let reference cq =
  let ctx = Relalg.Ctx.create () in
  let o = Driver.run ~ctx Driver.Bucket_elimination db cq in
  match o.Driver.result with
  | Some r -> shape ~free:cq.Cq.free r
  | None -> failwith "reference run aborted under the caps"

let setup spec ~seed =
  let instances =
    List.map
      (fun (label, cq) ->
        { label; cq; text = text_of ~names:default_names cq; reference = reference cq })
      (spec.instances ~seed)
  in
  let items =
    Array.of_list
      (List.concat_map
         (fun inst ->
           List.map (fun (meth_name, meth) -> { inst; meth_name; meth }) spec.methods)
         instances)
  in
  (* Shuffled once so that any prefix of a pass is a fair sample of the
     whole mix. *)
  Rng.shuffle (Rng.make (seed + 17)) items;
  (instances, items)

(* ------------------------------------------------------------------ *)
(* One query, as a user runs it.                                       *)

type sample = {
  item : item;
  parse_s : float;
  prepare_s : float;
  exec_s : float;
  shape_s : float;
  latency_s : float;
  ok : bool;  (** completed with the reference answer *)
  aborted : bool;
  tuples_produced : int;
  max_cardinality : int;
}

let run_one ?telemetry ~pool item =
  let t0 = now () in
  let parsed =
    match Conjunctive.Parse.query item.inst.text with
    | Ok p -> p
    | Error e -> failwith (Format.asprintf "%a" Conjunctive.Parse.pp_error e)
  in
  let cq = parsed.Conjunctive.Parse.query in
  let t1 = now () in
  let compiled = Driver.prepare item.meth db cq in
  let t2 = now () in
  let ctx = Relalg.Ctx.create ?telemetry ?pool () in
  let outcome = Driver.run ~ctx ~compiled item.meth db cq in
  let t3 = now () in
  let answer = Option.map (shape ~free:cq.Cq.free) outcome.Driver.result in
  let t4 = now () in
  let ok =
    match answer with
    | Some a -> same_answer a item.inst.reference
    | None -> false
  in
  {
    item;
    parse_s = t1 -. t0;
    prepare_s = t2 -. t1;
    exec_s = t3 -. t2;
    shape_s = t4 -. t3;
    latency_s = t4 -. t0;
    ok;
    aborted = Option.is_none outcome.Driver.result;
    tuples_produced = outcome.Driver.tuples_produced;
    max_cardinality = outcome.Driver.max_cardinality;
  }

(* Run [passes] whole passes over [items]: every item equally often,
   so the mix a run measures does not depend on where a clock stopped.
   The work is cut into [slices] equal stretches, with [after_slice]
   called after each. *)
let run_loop ?(slices = 1) ?(after_slice = ignore) ~pool ~passes items =
  let n = Array.length items in
  let total = max 1 passes * n in
  let rec go i acc =
    if i = total then List.rev acc
    else begin
      let acc = run_one ~pool items.(i mod n) :: acc in
      if (i + 1) * slices / total > i * slices / total then after_slice ();
      go (i + 1) acc
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Runs.                                                               *)

let make_pool spec =
  if spec.pooled then Some (Parallel.Pool.create ~num_domains:(nproc ()) ()) else None

let ms s = 1000.0 *. s

(* One timed setup: the pool, the instances and their references. *)
let timed_setup spec ~seed =
  time (fun () ->
      let pool = make_pool spec in
      let instances, items = setup spec ~seed in
      (pool, instances, items))

let failures samples = List.length (List.filter (fun s -> not s.ok) samples)

let report_failures samples =
  List.iter
    (fun s ->
      if not s.ok then
        Printf.printf "failed: %s under %s (%s)\n" s.item.inst.label s.item.meth_name
          (if s.aborted then "aborted" else "wrong answer"))
    samples
let wrong samples = List.length (List.filter (fun s -> (not s.ok) && not s.aborted) samples)

let throughput samples =
  float_of_int (List.length samples) /. sum (List.map (fun s -> s.latency_s) samples)

let latencies_ms samples = List.map (fun s -> ms s.latency_s) samples

let end_to_end ~setup_s samples =
  [
    metric "setup_s" "s" setup_s;
    metric "queries_per_s" "1/s" (throughput samples);
    metric "latency_p50_ms" "ms" (quantile (latencies_ms samples) 0.5);
    metric "rss_peak_mb" "MB" (rss_peak_mb "self");
  ]

(* The three routes of the structural gate, each forced the way
   [Driver.run] runs it (bucket and generic over the gate's variable
   order), on one instance: the chosen route's exec over the best
   route's. A forced route that cannot beat the best so far is cut off
   at that time. *)
let route_times inst =
  let cq = inst.cq in
  let prep = Ghd.prepare db cq in
  let timed ?deadline f =
    let limits =
      match deadline with
      | None -> Relalg.Limits.create ()
      | Some d -> Relalg.Limits.create ~deadline_seconds:d ()
    in
    let ctx = Relalg.Ctx.create ~limits () in
    match time (fun () -> f ctx) with
    | _, t -> t
    | exception Relalg.Limits.Abort _ -> infinity
  in
  let plan = Ppr_core.Bucket.compile ~order:(Array.of_list prep.Ghd.var_order) cq in
  let bucket = timed (fun ctx -> ignore (Ppr_core.Exec.run ~ctx db plan)) in
  let generic =
    timed (fun ctx -> ignore (Ppr_core.Exec.run_generic ~ctx ~order:prep.Ghd.var_order db cq))
  in
  let ghd =
    let run ctx = ignore (Ppr_core.Exec.run_ghd ~ctx ~prep db cq) in
    if prep.Ghd.decision = Ghd.Ghd then timed run
    else timed ~deadline:(Float.min bucket generic) run
  in
  let chosen =
    match prep.Ghd.decision with
    | Ghd.Bucket -> bucket
    | Ghd.Generic -> generic
    | Ghd.Ghd -> ghd
  in
  (prep.Ghd.decision, chosen, Float.min bucket (Float.min generic ghd))

let per_layer spec ~pool ~items ~instances =
  let items =
    Array.sub items 0 (max 1 (int_of_float (spec.trace_share *. float_of_int (Array.length items))))
  in
  let n = Array.length items in
  let run_pass ~pool () =
    let gc0 = Gc.quick_stat () in
    let samples, wall = time (fun () -> run_loop ~pool ~passes:1 items) in
    let gc1 = Gc.quick_stat () in
    (samples, wall, gc1.Gc.minor_words -. gc0.Gc.minor_words, gc1.Gc.major_words -. gc0.Gc.major_words)
  in
  let samples, plain_wall, minor, major = run_pass ~pool () in
  let speedup =
    match pool with
    | None -> 0.0
    | Some _ ->
      let _, seq_wall, _, _ = run_pass ~pool:None () in
      seq_wall /. plain_wall
  in
  let self = Hashtbl.create 32 in
  let traced_wall = ref 0.0 in
  Array.iter
    (fun item ->
      let sink, spans = Telemetry.Sink.memory () in
      let tel = Telemetry.create sink in
      let _, dt = time (fun () -> run_one ~telemetry:tel ~pool item) in
      traced_wall := !traced_wall +. dt;
      Telemetry.close tel;
      Hashtbl.iter
        (fun name t ->
          Hashtbl.replace self name
            (t +. Option.value (Hashtbl.find_opt self name) ~default:0.0))
        (self_times (spans ())))
    items;
  let traced_instances =
    List.filter (fun inst -> Array.exists (fun it -> it.inst == inst) items) instances
  in
  let routes = List.map route_times traced_instances in
  let count d = float_of_int (List.length (List.filter (fun (d', _, _) -> d' = d) routes)) in
  let regret =
    sum (List.map (fun (_, c, _) -> c) routes) /. sum (List.map (fun (_, _, b) -> b) routes)
  in
  let per_query f = f /. float_of_int n in
  let self_ms name =
    per_query (ms (Option.value (Hashtbl.find_opt self name) ~default:0.0))
  in
  let by_method field =
    List.map
      (fun (name, _) ->
        let xs = List.filter (fun s -> s.item.meth_name = name) samples in
        (name, ms (mean (List.map field xs))))
      spec.methods
  in
  let tuples = List.fold_left (fun a s -> a + s.tuples_produced) 0 samples in
  let rows = List.fold_left (fun a s -> a + s.item.inst.reference.cardinality) 0 samples in
  let parsed = List.map (fun inst -> (Conjunctive.Parse.query_exn inst.text).Conjunctive.Parse.query) traced_instances in
  let mean_micro f = mean (List.map (fun cq -> micro (fun () -> f cq)) parsed) in
  [
    metric "query.parse_us" "us" (mean (List.map (fun s -> 1e6 *. s.parse_s) samples));
    metric "hypergraph.canon_us" "us" (mean_micro Hypergraphs.Canon.canonicalize);
    metric "gate.bounds_us" "us" (mean_micro (Ghd.bounds db));
    metric "gate.route.bucket" "count" (count Ghd.Bucket);
    metric "gate.route.generic" "count" (count Ghd.Generic);
    metric "gate.route.ghd" "count" (count Ghd.Ghd);
    metric "gate.regret" "ratio" regret;
  ]
  @ List.map (fun (m, v) -> metric ("core.compile_ms." ^ m) "ms" v) (by_method (fun s -> s.prepare_s))
  @ List.map (fun (m, v) -> metric ("core.exec_ms." ^ m) "ms" v) (by_method (fun s -> s.exec_s))
  @ [
      metric "core.tuples_produced" "count" (float_of_int tuples);
      metric "core.max_cardinality" "count"
        (float_of_int (List.fold_left (fun a s -> max a s.max_cardinality) 0 samples));
      metric "core.useful_ratio" "ratio" (float_of_int rows /. float_of_int (max 1 tuples));
      metric "answer.shape_ms" "ms" (ms (mean (List.map (fun s -> s.shape_s) samples)));
      metric "relalg.op.scan_self_ms" "ms" (self_ms "op.scan");
      metric "relalg.op.join.hash_self_ms" "ms" (self_ms "op.join.hash");
      metric "relalg.op.project_self_ms" "ms" (self_ms "op.project");
      metric "relalg.op.semijoin_self_ms" "ms" (self_ms "op.semijoin");
      metric "ghd.op.bag_self_ms" "ms" (self_ms "op.ghd.bag");
      metric "ghd.op.eval_self_ms" "ms" (self_ms "op.ghd.eval");
      metric "ghd.op.enumerate_self_ms" "ms" (self_ms "op.ghd.enumerate");
      metric "wcoj.op.index_self_ms" "ms" (self_ms "op.wcoj.index");
      metric "wcoj.op.join_self_ms" "ms" (self_ms "op.wcoj.join");
      metric "wcoj.op.stream_self_ms" "ms" (self_ms "op.wcoj.stream");
      metric "relalg.gc_minor_mwords" "Mwords" (minor /. 1e6);
      metric "relalg.gc_major_mwords" "Mwords" (major /. 1e6);
      metric "parallel.speedup" "ratio" speedup;
      metric "trace.overhead" "ratio" (!traced_wall /. plain_wall);
      metric "latency_p95_ms" "ms" (quantile (latencies_ms samples) 0.95);
      metric "latency_p99_ms" "ms" (quantile (latencies_ms samples) 0.99);
      (* A one-client closed loop has a single load level and never
         builds a backlog: its low-load tail is its tail, and its
         highest sustainable rate is its throughput. *)
      metric "latency_p99_ms.low" "ms" (quantile (latencies_ms samples) 0.99);
      metric "max_rate_qps" "1/s" (throughput samples);
      metric "failed_frac" "ratio" (float_of_int (failures samples) /. float_of_int n);
    ],
  samples
