let cache_hits = Obs.Metrics.counter "exec.rcache.hits"
let cache_misses = Obs.Metrics.counter "exec.rcache.misses"
let cache_evictions = Obs.Metrics.counter "exec.rcache.evictions"
let cache_containment_hits = Obs.Metrics.counter "exec.rcache.containment_hits"

type payload = (string * Odb.Query_eval.row) list

type entry = {
  payload : payload;
  query : Odb.Query.t;
  fingerprint : string;
  mutable stamp : int;
}

type t = {
  capacity : int;
  containment : bool;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable containment_hits : int;
}

type key = { skey : string; query : Odb.Query.t; fingerprint : string }

let create ?(capacity = 128) ?(containment = true) () =
  if capacity < 1 then invalid_arg "Exec.Rcache.create: capacity must be at least 1";
  {
    capacity;
    containment;
    table = Hashtbl.create 32;
    lock = Mutex.create ();
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    containment_hits = 0;
  }

let key ~query ~fingerprint =
  (* the canonical rendering normalizes whitespace and parenthesization *)
  { skey = Odb.Query.to_string query ^ "\x00" ^ fingerprint; query; fingerprint }

let fingerprint = Oqf.Corpus.fingerprint

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key.skey with
  | Some e ->
      e.stamp <- tick t;
      t.hits <- t.hits + 1;
      Obs.Metrics.incr cache_hits;
      if Obs.Trace.enabled () then Obs.Trace.instant "rcache.hit";
      Some e.payload
  | None ->
      t.misses <- t.misses + 1;
      Obs.Metrics.incr cache_misses;
      if Obs.Trace.enabled () then Obs.Trace.instant "rcache.miss";
      None

let find_contained t key =
  if not t.containment then None
  else begin
    locked t @@ fun () ->
    (* every same-corpus entry whose query subsumes this one can serve
       it; prefer the smallest superset payload (least filtering work)
       and break ties on the key for determinism *)
    let best =
      Hashtbl.fold
        (fun skey (e : entry) acc ->
          if skey = key.skey || e.fingerprint <> key.fingerprint then acc
          else begin
            match Oqf.Subsume.subsumes key.query ~by:e.query with
            | None -> acc
            | Some residual -> begin
                let size = List.length e.payload in
                match acc with
                | Some (_, _, best_size, best_skey)
                  when best_size < size
                       || (best_size = size && best_skey <= skey) ->
                    acc
                | _ -> Some (e, residual, size, skey)
              end
          end)
        t.table None
    in
    match best with
    | None -> None
    | Some (e, residual, _, _) ->
        e.stamp <- tick t;
        t.containment_hits <- t.containment_hits + 1;
        Obs.Metrics.incr cache_containment_hits;
        if Obs.Trace.enabled () then
          Obs.Trace.instant "rcache.containment_hit"
            ~attrs:[ ("superset", Obs.Trace.Str (Odb.Query.to_string e.query)) ];
        Some
          ( Oqf.Subsume.filter_rows key.query ~residual e.payload,
            Odb.Query.to_string e.query )
  end

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.stamp <= e.stamp -> acc
        | _ -> Some (key, e))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      Obs.Metrics.incr cache_evictions

let add t key payload =
  locked t @@ fun () ->
  if not (Hashtbl.mem t.table key.skey) && Hashtbl.length t.table >= t.capacity
  then evict_lru t;
  Hashtbl.replace t.table key.skey
    {
      payload;
      query = key.query;
      fingerprint = key.fingerprint;
      stamp = tick t;
    }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  containment_hits : int;
  entries : int;
}

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    containment_hits = t.containment_hits;
    entries = Hashtbl.length t.table;
  }

let pp_stats ppf s =
  Format.fprintf ppf "hits=%d misses=%d evictions=%d containment=%d entries=%d"
    s.hits s.misses s.evictions s.containment_hits s.entries
