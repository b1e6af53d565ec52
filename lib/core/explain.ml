module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Ops = Relalg.Ops
module Cq = Conjunctive.Cq

type node = {
  plan : Plan.t;
  description : string;
  schema : int list;
  estimated_rows : float;
  actual_rows : int;
  children : node list;
}

let describe ~namer = function
  | Plan.Atom atom ->
    Format.asprintf "scan %s(%a)" atom.Cq.rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (fun ppf v -> Format.pp_print_string ppf (namer v)))
      atom.Cq.vars
  | Plan.Join _ -> "join"
  | Plan.Project (_, kept) ->
    Format.asprintf "project [%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (fun ppf v -> Format.pp_print_string ppf (namer v)))
      (List.sort_uniq Stdlib.compare kept)

let analyze ?(ctx = Relalg.Ctx.null) ?feedback db plan =
  let env =
    Cost.environment ?feedback db
      (Cq.make ~atoms:(Plan.atoms plan) ~free:(Plan.schema plan))
  in
  let default_namer v = Printf.sprintf "v%d" v in
  let rec go plan =
    let children, rel =
      match plan with
      | Plan.Atom atom -> ([], Conjunctive.Database.eval_atom ~ctx db atom)
      | Plan.Join (l, r) ->
        let nl, rl = go l in
        let nr, rr = go r in
        ([ nl; nr ], Ops.natural_join ~ctx rl rr)
      | Plan.Project (sub, kept) ->
        let nsub, rsub = go sub in
        let target =
          Schema.restrict (Relation.schema rsub) ~keep:(fun v -> List.mem v kept)
        in
        ([ nsub ], Ops.project ~ctx rsub target)
    in
    ( {
        plan;
        description = describe ~namer:default_namer plan;
        schema = Plan.schema plan;
        estimated_rows = Cost.estimate env plan;
        actual_rows = Relation.cardinality rel;
        children;
      },
      rel )
  in
  go plan

let render ?(namer = fun v -> Printf.sprintf "v%d" v) root =
  let buf = Buffer.create 256 in
  let rec go depth node =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf
      (Printf.sprintf "%s [%s]  est=%.1f rows=%d\n"
         (describe ~namer node.plan)
         (String.concat "," (List.map namer node.schema))
         node.estimated_rows node.actual_rows);
    List.iter (go (depth + 1)) node.children
  in
  go 0 root;
  Buffer.contents buf

let misestimate_ratio node =
  let est = Float.max node.estimated_rows 1e-9 in
  let actual = Float.max (float_of_int node.actual_rows) 1e-9 in
  Float.max (est /. actual) (actual /. est)

let largest_misestimate root =
  let rec worst node =
    let here = (node, misestimate_ratio node) in
    List.fold_left
      (fun ((_, best_ratio) as best) child ->
        let ((_, ratio) as candidate) = worst child in
        if ratio > best_ratio then candidate else best)
      here node.children
  in
  let node, ratio = worst root in
  if ratio <= 1.0 +. 1e-9 then None else Some (node, ratio)
