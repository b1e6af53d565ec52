(* Shared plumbing for the benchmark workloads: clocks, order
   statistics, query text, answer shaping, metric reporting. *)

module Json = Telemetry.Json
module Cq = Conjunctive.Cq

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics.                                                   *)

(* Linear interpolation between closest ranks, as numpy's default. *)
let quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* Mean wall time of [f] in microseconds, repeated until it has run
   for a few milliseconds so sub-microsecond calls still read. *)
let micro f =
  let rec go reps =
    let t0 = now () in
    for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done;
    let dt = now () -. t0 in
    if dt < 0.001 && reps < 1_000_000 then go (reps * 4)
    else 1e6 *. dt /. float_of_int reps
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Process facts.                                                      *)

(* Peak resident set (VmHWM) of [pid] in MiB, from /proc. *)
let rss_peak_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.0
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
        in
        scan ())

let nproc () = Domain.recommended_domain_count ()

(* The machine's CPU time from the first line of /proc/stat, in clock
   ticks summed over its CPUs: (stolen, total). Stolen time is time the
   hypervisor ran other guests on this machine's virtual CPUs while they
   had work. (0, 0) where /proc/stat cannot be read. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0.0, 0.0)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | "cpu" :: fields ->
          let ticks = List.filter_map float_of_string_opt fields in
          let stolen = match List.nth_opt ticks 7 with Some t -> t | None -> 0.0 in
          (stolen, List.fold_left ( +. ) 0.0 ticks)
        | _ | (exception End_of_file) -> (0.0, 0.0))

(* The share of the machine's CPU time stolen between two [cpu_ticks]
   readings. *)
let steal_share (s0, t0) (s1, t1) = if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.0

(* The 3-COLOR database every workload queries: [edge] over 3 colors. *)
let db = Conjunctive.Encode.coloring_database ()

(* A timed run sets up at this many points and reports the median of
   the setup times as setup_s: once before it measures, then between
   stretches of the measured work. Host speed drifts over tens of
   seconds, so setups taken back to back all see the same moment of it;
   spread over the run, their median follows the run's average speed as
   the measured metrics do. Each later point starts with an untimed full
   major collection, so that a setup is not billed for collecting what
   the measured work before it left behind. *)
let setup_rounds = 5

(* ------------------------------------------------------------------ *)
(* Query text.                                                         *)

(* Render [cq] as the Datalog text {!Conjunctive.Parse.query} reads,
   naming variable [v] [names v]; atoms are listed in the given order. *)
let text_of ~names (cq : Cq.t) =
  let atom (a : Cq.atom) =
    Printf.sprintf "%s(%s)" a.Cq.rel (String.concat "," (List.map names a.Cq.vars))
  in
  Printf.sprintf "q(%s) :- %s."
    (String.concat "," (List.map names cq.Cq.free))
    (String.concat ", " (List.map atom cq.Cq.atoms))

let default_names v = Printf.sprintf "V%d" v

(* ------------------------------------------------------------------ *)
(* Answers.                                                            *)

(* An answer as a user sees it: rows in head order, sorted, plus the
   cardinality (1 or 0 for a Boolean query's 0-ary answer). *)
type answer = { rows : int list list; cardinality : int }

let shape ~free relation =
  let schema = Relalg.Relation.schema relation in
  let columns = List.map (Relalg.Schema.index schema) free in
  let rows =
    match free with
    | [] -> []
    | _ ->
      List.sort compare
        (Relalg.Relation.fold
           (fun t acc -> List.map (Relalg.Tuple.get t) columns :: acc)
           relation [])
  in
  { rows; cardinality = Relalg.Relation.cardinality relation }

let same_answer a b = a.cardinality = b.cardinality && a.rows = b.rows

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_metrics metrics =
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.name m.value m.unit_)
    metrics

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (* A ratio over an empty set is not a number; JSON
                     would print null, which the result line must not
                     hold. *)
                  let value = if Float.is_finite m.value then m.value else 0.0 in
                  ( m.name,
                    Json.Obj [ ("value", Json.Float value); ("unit", Json.String m.unit_) ] ))
                metrics) );
       ])

(* Every traced run reports the same per-layer names, in [layout]
   order; a layer a workload never runs reports 0. *)
let fill_missing layout metrics =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.name layout) then invalid_arg ("unlisted metric " ^ m.name))
    metrics;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) metrics with
      | Some m -> m
      | None -> metric name unit_ 0.0)
    layout

(* ------------------------------------------------------------------ *)
(* Span self time.                                                     *)

(* Self time per span name, in seconds: each span's duration minus the
   part its direct children cover. *)
let self_times spans =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match Telemetry.Span.parent s with
      | Some p ->
        let prev = Option.value (Hashtbl.find_opt child_time p) ~default:0.0 in
        Hashtbl.replace child_time p (prev +. Telemetry.Span.duration s)
      | None -> ())
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own =
        Telemetry.Span.duration s
        -. Option.value
             (Hashtbl.find_opt child_time (Telemetry.Span.id s))
             ~default:0.0
      in
      let name = Telemetry.Span.name s in
      let prev = Option.value (Hashtbl.find_opt by_name name) ~default:0.0 in
      Hashtbl.replace by_name name (prev +. Float.max 0.0 own))
    spans;
  by_name
