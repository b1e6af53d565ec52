(* Parallel-join gate: time one large natural join sequentially
   and through a domain pool, require the outputs to be identical, and
   append the verdict to BENCH_results.json under "parallel_comparison".

     dune exec bench/parallel_bench.exe -- [--rows N] [--jobs J] [--reps K]
         [--json FILE] [--seq-results FILE] [--par-results FILE]

   The microbench joins R(a,b) |><| S(b,c) with N rows per side and ~one
   match per probe row, so the output is also ~N tuples. Correctness —
   the pooled join producing exactly the sequential tuple set — is
   enforced everywhere. The speedup threshold (default 1.5x, override
   with PPR_PAR_GATE_MIN; 0 disables) is only enforced when the machine
   actually has at least J cores: on a smaller box the domains timeshare
   one core and a speedup is physically impossible, so the gate records
   the measured ratio and passes on correctness alone.

   With --seq-results/--par-results, the wall_seconds of two figure runs
   (bench/main.exe --jobs 1 vs --jobs J) are also compared and recorded;
   the same core-count rule decides whether "parallel not slower" is
   enforced. *)

let rows = ref 1_000_000
let jobs = ref 4
let reps = ref 3
let json_path = ref "BENCH_results.json"
let seq_results = ref None
let par_results = ref None

let usage () =
  prerr_endline
    "usage: parallel_bench.exe [--rows N] [--jobs J] [--reps K] [--json \
     FILE] [--seq-results FILE] [--par-results FILE]";
  exit 2

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--rows" :: v :: rest ->
      (try rows := int_of_string v with _ -> usage ());
      go rest
    | "--jobs" :: v :: rest ->
      (try jobs := int_of_string v with _ -> usage ());
      go rest
    | "--reps" :: v :: rest ->
      (try reps := int_of_string v with _ -> usage ());
      go rest
    | "--json" :: v :: rest ->
      json_path := v;
      go rest
    | "--seq-results" :: v :: rest ->
      seq_results := Some v;
      go rest
    | "--par-results" :: v :: rest ->
      par_results := Some v;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* Deterministic data: a splitmix-style scramble keyed on the row index,
   so both sides carry the same key distribution without sharing rows. *)
let scramble x =
  let x = (x + 0x9e3779b9) * 0x85ebca6b land 0x3fffffff in
  let x = (x lxor (x lsr 13)) * 0xc2b2ae35 land 0x3fffffff in
  x lxor (x lsr 16)

let build_side ~schema ~salt ~key_col n =
  let rel = Relalg.Relation.create ~size_hint:n schema in
  for i = 0 to n - 1 do
    let key = scramble (i * 2 + salt) mod n in
    let payload = i in
    let tup =
      if key_col = 0 then Relalg.Tuple.of_list [ key; payload ]
      else Relalg.Tuple.of_list [ payload; key ]
    in
    ignore (Relalg.Relation.add rel tup)
  done;
  rel

let time_best ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let wall_of path =
  let doc = Bench_json.load path in
  (Bench_json.num "wall_seconds" doc, Bench_json.num "jobs" doc)

let () =
  parse_args ();
  let n = !rows and j = !jobs in
  let cores = Domain.recommended_domain_count () in
  let threshold =
    match Sys.getenv_opt "PPR_PAR_GATE_MIN" with
    | Some s -> ( try float_of_string (String.trim s) with _ -> 1.5)
    | None -> 1.5
  in
  let enforced = cores >= j && threshold > 0.0 in
  (* R over variables (a=0, b=1), S over (b=1, c=2): the join is on b. *)
  let r = build_side ~schema:(Relalg.Schema.of_list [ 0; 1 ]) ~salt:1 ~key_col:1 n in
  let s = build_side ~schema:(Relalg.Schema.of_list [ 1; 2 ]) ~salt:2 ~key_col:0 n in
  Printf.printf
    "parallel join gate: %d rows/side, jobs=%d, %d cores, reps=%d\n%!" n j
    cores !reps;
  let seq_out, seq_s =
    time_best ~reps:!reps (fun () -> Relalg.Ops.natural_join r s)
  in
  let pool = Parallel.Pool.create ~num_domains:j () in
  let ctx = Relalg.Ctx.create ~pool () in
  let par_out, par_s =
    time_best ~reps:!reps (fun () -> Relalg.Ops.natural_join ~ctx r s)
  in
  let identical =
    List.equal Relalg.Tuple.equal
      (Relalg.Relation.to_sorted_list seq_out)
      (Relalg.Relation.to_sorted_list par_out)
  in
  let speedup = seq_s /. Float.max par_s 1e-12 in
  Printf.printf
    "sequential: %.4fs   pooled(%d): %.4fs   speedup: %.2fx   output: %d \
     tuples, identical=%b\n%!"
    seq_s j par_s speedup
    (Relalg.Relation.cardinality seq_out)
    identical;
  (* Optional: wall-clock of two whole figure runs at --jobs 1 vs J. *)
  let figure_wall =
    match (!seq_results, !par_results) with
    | Some sp, Some pp ->
      let sw, _ = wall_of sp and pw, pj = wall_of pp in
      (match (sw, pw) with
      | Some sw, Some pw ->
        Printf.printf
          "figure wall clock: jobs=1 %.2fs vs jobs=%.0f %.2fs (%.2fx)\n%!" sw
          (Option.value pj ~default:(float_of_int j))
          pw
          (sw /. Float.max pw 1e-12);
        Some (sp, sw, pp, pw)
      | _ ->
        Printf.eprintf "warning: no wall_seconds in %s or %s\n%!" sp pp;
        None)
    | _ -> None
  in
  let micro_ok = (not enforced) || speedup >= threshold in
  let figure_ok =
    match figure_wall with
    | Some (_, sw, _, pw) when enforced ->
      (* Allow measurement noise, but a genuinely slower parallel sweep
         on a machine with enough cores is a regression. *)
      pw <= sw *. 1.05
    | _ -> true
  in
  let pass = identical && micro_ok && figure_ok in
  let verdict =
    let open Telemetry.Json in
    Obj
      ([
         ("rows_per_side", Int n);
         ("jobs", Int j);
         ("cores", Int cores);
         ("reps", Int !reps);
         ("sequential_seconds", Float seq_s);
         ("parallel_seconds", Float par_s);
         ("speedup", Float speedup);
         ("output_tuples", Int (Relalg.Relation.cardinality seq_out));
         ("identical_output", Bool identical);
         ("threshold", Float threshold);
         ("speedup_enforced", Bool enforced);
         ("pass", Bool pass);
       ]
      @
      match figure_wall with
      | None -> []
      | Some (sp, sw, pp, pw) ->
        [
          ( "figure_wall",
            Obj
              [
                ("sequential_results", String sp);
                ("sequential_seconds", Float sw);
                ("parallel_results", String pp);
                ("parallel_seconds", Float pw);
                ("speedup", Float (sw /. Float.max pw 1e-12));
              ] );
        ])
  in
  (if Sys.file_exists !json_path then
     Bench_json.update_file !json_path ~key:"parallel_comparison"
       ~value:verdict
   else begin
     let oc = open_out !json_path in
     Telemetry.Json.to_channel oc
       (Telemetry.Json.Obj [ ("parallel_comparison", verdict) ]);
     output_char oc '\n';
     close_out oc
   end);
  Printf.printf "updated %s with parallel_comparison\n%!" !json_path;
  if not identical then begin
    Printf.eprintf "FAIL: pooled join output differs from sequential\n";
    exit 1
  end;
  if not micro_ok then begin
    Printf.eprintf "FAIL: parallel join speedup %.2fx < %.2fx on %d cores\n"
      speedup threshold cores;
    exit 1
  end;
  if not figure_ok then begin
    Printf.eprintf "FAIL: parallel figure run slower than sequential\n";
    exit 1
  end;
  if not enforced then
    Printf.printf
      "note: speedup threshold not enforced (%d cores < %d jobs or \
       threshold disabled); gate passed on output identity\n%!"
      cores j
