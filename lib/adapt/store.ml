module Cost = Ppr_core.Cost

(* Factors live in log space so exponential decay is a convex blend and
   over/under-estimates of equal magnitude cancel symmetrically. *)
type entry = { mutable logf : float; mutable samples : int }

type t = {
  decay : float;
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  hits : int Atomic.t;
  total_samples : int Atomic.t;
}

let create ?(decay = 0.3) () =
  if not (decay > 0. && decay <= 1.) then
    invalid_arg "Adapt.Store.create: decay outside (0, 1]";
  {
    decay;
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    hits = Atomic.make 0;
    total_samples = Atomic.make 0;
  }

let decay t = t.decay

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let observe t ~key ~measured ~estimated =
  if
    Float.is_finite measured && Float.is_finite estimated && measured >= 0.
    && estimated > 0.
  then begin
    let ratio = Cost.clamp_factor (measured /. estimated) in
    let lr = log ratio in
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
          e.logf <- ((1. -. t.decay) *. e.logf) +. (t.decay *. lr);
          e.samples <- e.samples + 1
        | None ->
          (* The first sample is taken whole: decaying toward the prior
             log f = 0 would water down the one thing we just learned. *)
          Hashtbl.add t.table key { logf = lr; samples = 1 });
    Atomic.incr t.total_samples
  end

let ingest t obs =
  List.iter
    (fun o ->
      observe t ~key:o.Cost.key ~measured:o.Cost.measured
        ~estimated:o.Cost.estimated)
    obs

let factor t key =
  locked t (fun () ->
      Option.map (fun e -> exp e.logf) (Hashtbl.find_opt t.table key))

let feedback t key =
  match factor t key with
  | Some f ->
    Atomic.incr t.hits;
    Some f
  | None -> None

let size t = locked t (fun () -> Hashtbl.length t.table)
let hits t = Atomic.get t.hits
let samples t = Atomic.get t.total_samples

(* ------------------------------------------------------------------ *)
(* Persistence — the plan cache's discipline ({!Snapshot}): a digested
   body, silent rejection of anything the running binary did not write,
   atomic replace. Entries are plain (key, logf, samples) triples. *)

let magic = "ppr-feedback\n"
let format_version = 2

let save t path =
  let entries =
    locked t (fun () ->
        Hashtbl.fold
          (fun key e acc -> (key, e.logf, e.samples) :: acc)
          t.table [])
    |> List.sort compare
  in
  Snapshot.write ~magic ~version:format_version path entries;
  List.length entries

let load t path =
  match Snapshot.read ~magic ~version:format_version path with
  | None -> 0
  | Some (entries : (string * float * int) list) ->
    let entries =
      List.filter
        (fun (_, logf, samples) -> Float.is_finite logf && samples > 0)
        entries
    in
    locked t (fun () ->
        List.iter
          (fun (key, logf, samples) ->
            if not (Hashtbl.mem t.table key) then
              Hashtbl.add t.table key { logf; samples })
          entries);
    List.length entries
