module Table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type t = {
  schema : Schema.t;
  mutable tail : Tuple.t Seq.t;
  mutable closed : bool;
  mutable yielded : int;
  mutable on_close : (unit -> unit) option;
}

let run_close c =
  match c.on_close with
  | None -> ()
  | Some f ->
    c.on_close <- None;
    f ()

let close c =
  if not c.closed then begin
    c.closed <- true;
    c.tail <- Seq.empty;
    run_close c
  end

let closed c = c.closed
let schema c = c.schema
let yielded c = c.yielded

let dedup_seq seq =
  let seen = Table.create 64 in
  Seq.filter
    (fun tup ->
      if Table.mem seen tup then false
      else begin
        Table.replace seen tup ();
        true
      end)
    seq

let of_seq ?(dedup = false) ?on_close ~schema seq =
  let seq = if dedup then dedup_seq seq else seq in
  { schema; tail = seq; closed = false; yielded = 0; on_close }

(* Invert a push producer into a lazy sequence: the producer runs as a
   fiber that performs [Yield] at every emitted tuple; the handler
   captures the continuation in the sequence's tail, so each pull resumes
   the producer exactly up to its next emission. One-shot continuations
   are respected — the cursor forces each node at most once. *)
type _ Effect.t += Yield : Tuple.t -> unit Effect.t

let seq_of_iter produce : Tuple.t Seq.t =
 fun () ->
  let open Effect.Deep in
  match_with
    (fun () ->
      produce (fun tup -> Effect.perform (Yield tup));
      Seq.Nil)
    ()
    {
      retc = (fun node -> node);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield tup ->
            Some
              (fun (k : (a, _) continuation) ->
                Seq.Cons (tup, fun () -> continue k ()))
          | _ -> None);
    }

let of_iter ?dedup ?on_close ~schema produce =
  of_seq ?dedup ?on_close ~schema (seq_of_iter produce)

let of_relation rel =
  of_seq ~schema:(Relation.schema rel) (Relation.to_seq rel)

let next c =
  if c.closed then None
  else
    match c.tail () with
    | Seq.Nil ->
      close c;
      None
    | Seq.Cons (tup, rest) ->
      c.tail <- rest;
      c.yielded <- c.yielded + 1;
      Some tup
    | exception e ->
      (* An abort (or any producer failure) poisons the stream: close
         before propagating so the one-shot tail is never re-forced. *)
      close c;
      raise e

let rec iter f c =
  match next c with
  | None -> ()
  | Some tup ->
    f tup;
    iter f c

let take c k =
  let rec go k acc =
    if k <= 0 then List.rev acc
    else
      match next c with
      | None -> List.rev acc
      | Some tup -> go (k - 1) (tup :: acc)
  in
  go k []

let to_relation c =
  let out = Relation.create c.schema in
  iter (fun tup -> ignore (Relation.add out tup)) c;
  out

(* Bounded max-heap keyed by [compare]: the root is the worst retained
   tuple, so a better candidate evicts it in O(log k). *)
let top_k ~compare c k =
  if k <= 0 then begin
    iter ignore c;
    []
  end
  else begin
    let heap = Array.make k [||] in
    let size = ref 0 in
    let swap i j =
      let tmp = heap.(i) in
      heap.(i) <- heap.(j);
      heap.(j) <- tmp
    in
    let rec sift_up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if compare heap.(i) heap.(p) > 0 then begin
          swap i p;
          sift_up p
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = ref i in
      if l < !size && compare heap.(l) heap.(!m) > 0 then m := l;
      if r < !size && compare heap.(r) heap.(!m) > 0 then m := r;
      if !m <> i then begin
        swap i !m;
        sift_down !m
      end
    in
    iter
      (fun tup ->
        if !size < k then begin
          heap.(!size) <- tup;
          incr size;
          sift_up (!size - 1)
        end
        else if compare tup heap.(0) < 0 then begin
          heap.(0) <- tup;
          sift_down 0
        end)
      c;
    List.sort compare (Array.to_list (Array.sub heap 0 !size))
  end
