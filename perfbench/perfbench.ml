(* The repository benchmark: one command per workload, one JSON result
   line. See README.md in this directory for the workloads and for
   which per-layer metric should move which end-to-end metric.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 --ppr PATH --run-dir DIR *)

open Common

let workloads = [ "paper-3color"; "structured-wide"; "serve-zipf" ]

(* Every traced run reports exactly these, in this order. *)
let per_layer =
  let methods = [ "straightforward"; "early-proj"; "reordering"; "bucket-elim"; "wcoj"; "ghd" ] in
  [ ("query.parse_us", "us"); ("hypergraph.canon_us", "us"); ("gate.bounds_us", "us");
    ("gate.route.bucket", "count"); ("gate.route.generic", "count");
    ("gate.route.ghd", "count"); ("gate.regret", "ratio") ]
  @ List.map (fun m -> ("core.compile_ms." ^ m, "ms")) methods
  @ List.map (fun m -> ("core.exec_ms." ^ m, "ms")) methods
  @ [ ("core.tuples_produced", "count"); ("core.max_cardinality", "count");
      ("core.useful_ratio", "ratio"); ("answer.shape_ms", "ms");
      ("relalg.op.scan_self_ms", "ms"); ("relalg.op.join.hash_self_ms", "ms");
      ("relalg.op.project_self_ms", "ms"); ("relalg.op.semijoin_self_ms", "ms");
      ("ghd.op.bag_self_ms", "ms"); ("ghd.op.eval_self_ms", "ms");
      ("ghd.op.enumerate_self_ms", "ms"); ("wcoj.op.index_self_ms", "ms");
      ("wcoj.op.join_self_ms", "ms"); ("wcoj.op.stream_self_ms", "ms");
      ("relalg.gc_minor_mwords", "Mwords"); ("relalg.gc_major_mwords", "Mwords");
      ("parallel.speedup", "ratio"); ("serve.queue_ms.p50", "ms"); ("serve.queue_ms.p99", "ms");
      ("serve.compile_ms", "ms"); ("serve.exec_ms", "ms"); ("serve.overhead_ms", "ms");
      ("serve.latency_p50_ms.hit", "ms"); ("serve.latency_p50_ms.miss", "ms");
      ("serve.latency_p50_ms.page", "ms"); ("serve.latency_p50_ms.shed", "ms");
      ("serve.plan_cache.hit_rate", "ratio"); ("serve.plan_cache.evictions", "count");
      ("serve.admission_us", "us"); ("serve.batched_frac", "ratio");
      ("serve.shed_cost", "count"); ("serve.shed_quota", "count");
      ("serve.overloaded", "count"); ("serve.expired", "count");
      ("serve.cursor_evictions", "count"); ("wire.parse_us", "us"); ("wire.encode_us", "us");
      ("wire.response_bytes", "bytes"); ("supervise.rungs_per_query", "count");
      ("adapt.feedback_samples", "count"); ("loadgen.lag_p99_ms", "ms");
      ("trace.overhead", "ratio"); ("latency_p95_ms", "ms"); ("latency_p99_ms", "ms");
      ("latency_p99_ms.low", "ms"); ("max_rate_qps", "1/s"); ("failed_frac", "ratio") ]

let run_batch spec ~seed ~seconds ~trace =
  let (pool, instances, items), first_setup = Batch.timed_setup spec ~seed in
  Fun.protect ~finally:(fun () -> Option.iter Parallel.Pool.shutdown pool) @@ fun () ->
  let metrics, samples =
    if trace then Batch.per_layer spec ~pool ~items ~instances
    else begin
      (* setup_s is the median of setup_rounds setups: the one above,
         and one after each of the slices the measured work is cut in. *)
      let setup_times = ref [ first_setup ] in
      let another_setup () =
        Gc.full_major ();
        let (extra_pool, _, _), t = Batch.timed_setup spec ~seed in
        Option.iter Parallel.Pool.shutdown extra_pool;
        setup_times := t :: !setup_times
      in
      let passes = int_of_float (Float.round (seconds /. spec.Batch.pass_seconds)) in
      let samples =
        Batch.run_loop ~slices:(setup_rounds - 1) ~after_slice:another_setup ~pool ~passes items
      in
      (Batch.end_to_end ~setup_s:(median !setup_times) samples, samples)
    end
  in
  Batch.report_failures samples;
  (Batch.wrong samples = 0, List.length samples, Batch.failures samples, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let ppr = ref "" and run_dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--ppr", Arg.Set_string ppr, "PATH to the ppr executable (serve-zipf)");
      ("--run-dir", Arg.Set_string run_dir, "DIR for the daemon socket and log");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  Printf.printf "workload %s seed %d seconds %g trace %b nproc %d ocaml %s\n%!" !workload !seed
    !seconds trace (nproc ()) Sys.ocaml_version;
  let correct, attempted, failed, metrics =
    match !workload with
    | "paper-3color" ->
      Printf.printf "pool none\n%!";
      run_batch Batch.paper_3color ~seed:!seed ~seconds:!seconds ~trace
    | "structured-wide" ->
      Printf.printf "pool %d domains\n%!" (nproc ());
      run_batch Batch.structured_wide ~seed:!seed ~seconds:!seconds ~trace
    | _ ->
      Printf.printf "daemon flags: %s\n%!"
        (String.concat " " (Zipf_load.daemon_flags ~workers:(nproc ())));
      Zipf_load.run_load ~seed:!seed ~seconds:!seconds ~trace ~ppr:!ppr ~run_dir:!run_dir
  in
  let metrics = if trace then fill_missing per_layer metrics else metrics in
  print_metrics metrics;
  Printf.printf "attempted %d failed %d correct %b\n" attempted failed correct;
  print_endline (result_line ~correct ~attempted ~failed metrics)
