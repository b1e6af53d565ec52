(* LRU cache of compiled plan artifacts, keyed by the canonicalized
   query hypergraph. Thread-safe: sessions on different worker domains
   share one cache. The compile callback runs OUTSIDE the lock — two
   racing misses for one key may both compile, and the first insert
   wins, so every winner is still an artifact valid for the key. *)

type 'a slot = { value : 'a; mutable last_used : int }

type 'a t = {
  capacity : int;
  lock : Mutex.t;
  table : (string, 'a slot) Hashtbl.t;
  mutable tick : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity < 1";
  {
    capacity;
    lock = Mutex.create ();
    table = Hashtbl.create capacity;
    tick = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

(* Length-prefixed serialization of the canonical query, so no relation
   name can collide with the separators: the key is injective in
   (method, canonical atoms, canonical free list). *)
let key_of ~canon ~meth =
  let cq = canon.Hypergraphs.Canon.query in
  let buf = Buffer.create 64 in
  let str s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let ints vs =
    Buffer.add_char buf '(';
    List.iter
      (fun v ->
        Buffer.add_string buf (string_of_int v);
        Buffer.add_char buf ',')
      vs;
    Buffer.add_char buf ')'
  in
  str meth;
  ints cq.Conjunctive.Cq.free;
  List.iter
    (fun a ->
      str a.Conjunctive.Cq.rel;
      ints a.Conjunctive.Cq.vars)
    cq.Conjunctive.Cq.atoms;
  Buffer.contents buf

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t slot =
  t.tick <- t.tick + 1;
  slot.last_used <- t.tick

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some slot ->
        touch t slot;
        Atomic.incr t.hits;
        Some slot.value
      | None ->
        Atomic.incr t.misses;
        None)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, best) when best.last_used <= slot.last_used -> acc
        | _ -> Some (key, slot))
      t.table None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    Atomic.incr t.evictions
  | None -> ()

let add t key value =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some slot ->
        (* A racing compile landed first; keep its artifact so every
           later hit shares one value. *)
        touch t slot;
        slot.value
      | None ->
        if Hashtbl.length t.table >= t.capacity then evict_lru t;
        let slot = { value; last_used = 0 } in
        touch t slot;
        Hashtbl.add t.table key slot;
        value)

let find_or_add t key compile =
  match find t key with
  | Some v -> (v, true)
  | None -> (add t key (compile ()), false)

let size t = locked t (fun () -> Hashtbl.length t.table)
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let evictions t = Atomic.get t.evictions

(* ------------------------------------------------------------------ *)
(* Persistence. Entries are Marshal-ed artifacts, so a snapshot is only
   trustworthy when read back by the very binary that wrote it, intact:
   {!Adapt.Snapshot} checks a magic string, the format version, the
   digest of the running executable and the digest of the body, and
   [load] silently ignores any file that fails a check (a stale
   snapshot must never poison a fresh daemon — the worst outcome of a
   rejected file is a cold cache). Version 2: [Ghd.prep] carries
   per-bag atom lists. *)

let magic = "ppr-plan-cache\n"
let format_version = 2

(* Oldest-first, so replaying through [add] on load rebuilds the same
   LRU recency order (and, at capacity, evicts the same old entries). *)
let entries_by_recency t =
  let all =
    locked t (fun () ->
        Hashtbl.fold
          (fun key slot acc -> (key, slot.value, slot.last_used) :: acc)
          t.table [])
  in
  all
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  |> List.map (fun (k, v, _) -> (k, v))

let save t path =
  let entries = entries_by_recency t in
  Adapt.Snapshot.write ~magic ~version:format_version path entries;
  List.length entries

let load t path =
  match Adapt.Snapshot.read ~magic ~version:format_version path with
  | None -> 0
  | Some (entries : (string * _) list) ->
    List.iter (fun (key, value) -> ignore (add t key value)) entries;
    List.length entries
