(* Benchmark harness: reproduces every figure of the paper's evaluation
   (Figures 2-9), the Section 7 extension experiments, and a set of
   Bechamel micro-benchmarks over the engine's operators.

     dune exec bench/main.exe                    # everything, default scale
     dune exec bench/main.exe -- --figure 3      # one figure
     dune exec bench/main.exe -- --scale 1.0     # paper-sized instances
     dune exec bench/main.exe -- --micro         # micro-benchmarks only

   The environment variable PPR_BENCH_SCALE overrides the default scale.
   Besides the human-readable tables (and optional --csv), every run
   writes a machine-readable summary — per-figure method timings, seeds,
   scale, git revision — to BENCH_results.json (path override: --json). *)

let default_scale =
  match Sys.getenv_opt "PPR_BENCH_SCALE" with
  | Some s -> (
    match float_of_string_opt s with
    | Some f -> f
    | None ->
      Printf.eprintf
        "warning: PPR_BENCH_SCALE=%S is not a number; using default scale \
         0.7\n\
         %!"
        s;
      0.7)
  | None -> 0.7

let usage () =
  Printf.eprintf
    "usage: main.exe [--figure NAME] [--scale S] [--seeds N] [--jobs N] \
     [--micro] [--csv FILE] [--json FILE]\n\
     figures: %s\n"
    (String.concat ", " Experiments.Figures.names);
  exit 2

type options = {
  mutable figure : string;
  mutable scale : float;
  mutable seeds : int;
  mutable jobs : int;
  mutable micro_only : bool;
  mutable csv : string option;
  mutable json : string;
}

let parse_args () =
  let opts =
    { figure = "all"; scale = default_scale; seeds = 3; jobs = 1;
      micro_only = false; csv = None; json = "BENCH_results.json" }
  in
  let rec go = function
    | [] -> ()
    | "--figure" :: v :: rest ->
      opts.figure <- v;
      go rest
    | "--scale" :: v :: rest ->
      (try opts.scale <- float_of_string v with _ -> usage ());
      go rest
    | "--seeds" :: v :: rest ->
      (try opts.seeds <- int_of_string v with _ -> usage ());
      go rest
    | "--jobs" :: v :: rest ->
      (try opts.jobs <- int_of_string v with _ -> usage ());
      go rest
    | "--micro" :: rest ->
      opts.micro_only <- true;
      go rest
    | "--csv" :: v :: rest ->
      opts.csv <- Some v;
      go rest
    | "--json" :: v :: rest ->
      opts.json <- v;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  opts

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per engine hot spot.                 *)

let micro_tests () =
  let open Bechamel in
  let db = Conjunctive.Encode.coloring_database () in
  let rng = Graphlib.Rng.make 11 in
  let g = Graphlib.Generators.random ~rng ~n:16 ~m:48 in
  let cq = Conjunctive.Encode.coloring_query_of_graph ~mode:Conjunctive.Encode.Boolean g in
  let jg = lazy (Conjunctive.Joingraph.build cq) in
  let bucket_plan = lazy (Ppr_core.Bucket.compile cq) in
  let ep_plan = lazy (Ppr_core.Early_projection.compile cq) in
  let edge = Conjunctive.Database.find db Conjunctive.Encode.edge_relation_name in
  let wide =
    (* A 3^8-tuple relation for join/project throughput measurements. *)
    let schema = Relalg.Schema.of_list [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
    let rel = Relalg.Relation.create schema in
    let rec fill prefix depth =
      if depth = 0 then
        ignore (Relalg.Relation.add rel (Relalg.Tuple.of_list (List.rev prefix)))
      else
        List.iter (fun c -> fill (c :: prefix) (depth - 1)) [ 1; 2; 3 ]
    in
    fill [] 8;
    rel
  in
  [
    Test.make ~name:"ops/natural_join(3^8 x edge)"
      (Staged.stage (fun () -> Relalg.Ops.natural_join wide edge));
    Test.make ~name:"ops/project(3^8 -> 4 cols)"
      (Staged.stage (fun () ->
           Relalg.Ops.project wide (Relalg.Schema.of_list [ 0; 2; 4; 6 ])));
    Test.make ~name:"ops/semijoin(3^8 by edge)"
      (Staged.stage (fun () -> Relalg.Ops.semijoin wide edge));
    Test.make ~name:"graph/mcs-order(n=16,m=48)"
      (Staged.stage (fun () ->
           Graphlib.Order.mcs (Lazy.force jg).Conjunctive.Joingraph.graph));
    Test.make ~name:"graph/min-fill(n=16,m=48)"
      (Staged.stage (fun () ->
           Graphlib.Order.min_fill (Lazy.force jg).Conjunctive.Joingraph.graph));
    Test.make ~name:"planner/bucket-compile(m=48)"
      (Staged.stage (fun () -> Ppr_core.Bucket.compile cq));
    Test.make ~name:"planner/bucket-exec(m=48)"
      (Staged.stage (fun () -> Ppr_core.Exec.run db (Lazy.force bucket_plan)));
    Test.make ~name:"planner/early-proj-exec(m=48)"
      (Staged.stage (fun () ->
           try
             ignore
               (Ppr_core.Exec.run
                  ~ctx:(Relalg.Ctx.create ~limits:(Relalg.Limits.create ()) ())
                  db (Lazy.force ep_plan))
           with Relalg.Limits.Abort _ -> ()));
    Test.make ~name:"supervise/ladder-rescue(m=48)"
      (* Chaos kills the first rung mid-join; the measurement covers the
         abort, the retry, and the report bookkeeping. *)
      (Staged.stage (fun () ->
           ignore
             (Supervise.run
                ~chaos:(Supervise.Chaos.after_tuples ~attempts:[ 0 ] 64)
                Ppr_core.Driver.Bucket_elimination db cq)));
  ]

let run_micro () =
  let open Bechamel in
  let tests = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (micro_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Printf.printf "\n== Micro-benchmarks (ns per run, OLS estimate) ==\n";
  let estimates = ref [] in
  Hashtbl.iter
    (fun _measure per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
            estimates := (name, est) :: !estimates;
            Printf.printf "%-40s %12.0f ns\n" name est
          | _ -> Printf.printf "%-40s %12s\n" name "n/a")
        per_test)
    results;
  print_newline ();
  List.sort Stdlib.compare !estimates

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_results.json.                       *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let json_of_row (r : Experiments.Sweep.row) =
  let c = r.Experiments.Sweep.row_cell in
  let open Telemetry.Json in
  Obj
    [
      ("panel", String r.Experiments.Sweep.row_panel);
      ("x", String r.Experiments.Sweep.row_x);
      ("method", String r.Experiments.Sweep.row_method);
      ("median_seconds", Float c.Experiments.Sweep.median_seconds);
      ("abort_fraction", Float c.Experiments.Sweep.abort_fraction);
      ( "abort_reasons",
        Obj
          (List.map
             (fun (label, f) -> (label, Float f))
             c.Experiments.Sweep.abort_breakdown) );
      ("rescued_fraction", Float c.Experiments.Sweep.rescued_fraction);
      ("nonempty_fraction", Float c.Experiments.Sweep.nonempty_fraction);
      ("plan_width", Int c.Experiments.Sweep.median_plan_width);
      ("measured_width", Int c.Experiments.Sweep.median_max_arity);
    ]

let write_json ~opts ~wall_seconds ~rows ~micro =
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("schema_version", Int 1);
        ("paper", String "Projection Pushing Revisited (EDBT 2004)");
        ( "git_rev",
          match git_rev () with Some r -> String r | None -> Null );
        ("figure", String opts.figure);
        ("scale", Float opts.scale);
        ("seeds", Int opts.seeds);
        ("jobs", Int opts.jobs);
        ("wall_seconds", Float wall_seconds);
        ("rows", List (List.rev_map json_of_row rows |> List.rev));
        ( "micro_ns",
          Obj (List.map (fun (name, est) -> (name, Float est)) micro) );
      ]
  in
  let oc = open_out opts.json in
  to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d figure rows, %d micro estimates)\n%!" opts.json
    (List.length rows) (List.length micro)

let () =
  let opts = parse_args () in
  Experiments.Sweep.set_pool
    (if opts.jobs > 1 then
       Some (Parallel.Pool.create ~num_domains:opts.jobs ())
     else None);
  let started = Unix.gettimeofday () in
  let csv_channel = Option.map open_out opts.csv in
  Experiments.Sweep.set_csv_channel csv_channel;
  at_exit (fun () -> Option.iter close_out csv_channel);
  let rows = ref [] in
  Experiments.Sweep.set_recorder (Some (fun r -> rows := r :: !rows));
  if not opts.micro_only then begin
    match Experiments.Figures.by_name opts.figure with
    | Some f ->
      Printf.printf
        "Projection Pushing Revisited — figure reproduction (scale %.2f, %d seeds)\n"
        opts.scale opts.seeds;
      f ~scale:opts.scale ~seeds:opts.seeds
    | None -> usage ()
  end;
  let micro =
    if opts.micro_only || opts.figure = "all" then run_micro () else []
  in
  write_json ~opts
    ~wall_seconds:(Unix.gettimeofday () -. started)
    ~rows:(List.rev !rows) ~micro
