module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Tuple = Relalg.Tuple

type t = { relations : (string, Relation.t) Hashtbl.t }

let create () = { relations = Hashtbl.create 16 }
(* Index on the way in: database relations are read by several domains
   at once (serve workers, sweep cells), and [Relation.mem] on an arena
   whose index lags would write to it (see [Arena]). *)
let add t name rel =
  Relalg.Arena.index (Relation.arena rel);
  Hashtbl.replace t.relations name rel
let find t name = Hashtbl.find t.relations name
let mem t name = Hashtbl.mem t.relations name
let names t = List.sort Stdlib.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.relations [])

let save_dir t dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Hashtbl.iter
    (fun name rel -> Relalg.Io.save (Filename.concat dir (name ^ ".tsv")) rel)
    t.relations

let load_dir dir =
  let t = create () in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".tsv" then
        add t
          (Filename.chop_suffix file ".tsv")
          (Relalg.Io.load (Filename.concat dir file)))
    (Sys.readdir dir);
  t

let eval_atom ?(ctx = Relalg.Ctx.null) t atom =
  let stats = Relalg.Ctx.stats ctx and limits = Relalg.Ctx.limits ctx in
  let sp =
    match Relalg.Ctx.telemetry ctx with
    | None -> None
    | Some tel -> Some (tel, Telemetry.start tel "op.scan")
  in
  (match limits with Some l -> Relalg.Limits.tick_operator l | None -> ());
  let base = find t atom.Cq.rel in
  let positions = Array.of_list atom.Cq.vars in
  if Array.length positions <> Relation.arity base then
    invalid_arg
      (Printf.sprintf "Database.eval_atom: atom %s has arity %d, relation has %d"
         atom.Cq.rel (Array.length positions) (Relation.arity base));
  let distinct = Cq.atom_vars atom in
  let out_schema = Schema.of_list distinct in
  (* Column of the first occurrence of each distinct variable. *)
  let first_col v =
    let rec go i = if positions.(i) = v then i else go (i + 1) in
    go 0
  in
  let keep = Array.of_list (List.map first_col distinct) in
  let consistent tup =
    let ok = ref true in
    Array.iteri
      (fun col v -> if Tuple.get tup col <> Tuple.get tup (first_col v) then ok := false)
      positions;
    !ok
  in
  let out =
    Relation.create ~size_hint:(Relation.cardinality base) out_schema
  in
  Relation.iter
    (fun tup -> if consistent tup then ignore (Relation.add out (Tuple.project tup keep)))
    base;
  (match limits with
  | Some l ->
    Relalg.Limits.charge l (Relation.cardinality out);
    Relalg.Limits.check_cardinality l (Relation.cardinality out)
  | None -> ());
  (match stats with
  | Some st ->
    Relalg.Stats.record_relation st ~arity:(Relation.arity out)
      ~cardinality:(Relation.cardinality out)
  | None -> ());
  (match sp with
  | None -> ()
  | Some (tel, sp) ->
    Telemetry.Span.add_attrs sp
      [
        ("relation", Telemetry.Attr.String atom.Cq.rel);
        ("rows.base", Telemetry.Attr.Int (Relation.cardinality base));
        ("rows.out", Telemetry.Attr.Int (Relation.cardinality out));
        ("arity.out", Telemetry.Attr.Int (Relation.arity out));
      ];
    Telemetry.stop tel sp);
  out
