type reason =
  | Deadline
  | Tuple_budget
  | Cardinality of int
  | Fuel
  | Injected of string

exception Abort of reason

type hook = ops:int -> total:int -> unit

type t = {
  max_tuples : int;
  max_total : int;
  max_fuel : int;
  deadline : float option;  (* absolute, in [clock] units *)
  clock : unit -> float;
  check_interval : int;
  mutable total : int;
  mutable ops : int;
  mutable unpolled : int;  (* charges since the last deadline poll *)
  mutable hook : hook option;
}

let create ?(max_tuples = 2_000_000) ?(max_total = 20_000_000)
    ?(fuel = max_int) ?deadline_seconds ?(clock = Unix.gettimeofday)
    ?(check_interval = 512) () =
  {
    max_tuples;
    max_total;
    max_fuel = fuel;
    deadline = Option.map (fun s -> clock () +. s) deadline_seconds;
    clock;
    check_interval = max 1 check_interval;
    total = 0;
    ops = 0;
    unpolled = 0;
    hook = None;
  }

let unlimited () =
  create ~max_tuples:max_int ~max_total:max_int ~fuel:max_int ()

let set_hook t hook = t.hook <- hook

let check_deadline t =
  match t.deadline with
  | Some d when t.clock () > d -> raise (Abort Deadline)
  | _ -> ()

let run_hook t =
  match t.hook with Some h -> h ~ops:t.ops ~total:t.total | None -> ()

(* Clock reads dominate the cost of polling, so inner loops only read it
   every [check_interval] charges; the hook is cheap and runs on every
   charge so injected faults land at an exact tuple count. *)
let charge t n =
  if n > 0 then begin
    t.unpolled <- t.unpolled + n;
    if t.unpolled >= t.check_interval then begin
      t.unpolled <- 0;
      check_deadline t
    end;
    if t.total + n > t.max_total then raise (Abort Tuple_budget);
    t.total <- t.total + n;
    run_hook t
  end

let check_cardinality t n = if n > t.max_tuples then raise (Abort (Cardinality n))

let tick_operator t =
  t.unpolled <- 0;
  check_deadline t;
  if t.ops >= t.max_fuel then raise (Abort Fuel);
  t.ops <- t.ops + 1;
  run_hook t

let total_charged t = t.total
let remaining t = t.max_total - t.total
let operators_run t = t.ops
let remaining_fuel t = t.max_fuel - t.ops

let describe = function
  | Deadline -> "wall-clock deadline exceeded"
  | Tuple_budget -> "total tuple budget exhausted"
  | Cardinality n ->
    Printf.sprintf "intermediate relation of %d tuples exceeds the cardinality cap" n
  | Fuel -> "operator fuel exhausted"
  | Injected label -> "injected fault: " ^ label

let reason_label = function
  | Deadline -> "deadline"
  | Tuple_budget -> "tuple-budget"
  | Cardinality _ -> "cardinality"
  | Fuel -> "fuel"
  | Injected _ -> "injected"

let pp_reason ppf r = Format.pp_print_string ppf (describe r)
