type entry = {
  instance : Pat.Instance.t;
  mutable cost : int;
  mutable stamp : int;
}

(* Internally locked: with watch-mode ingest, a background writer
   domain inserts rebuilt instances while reader threads look up
   pinned-snapshot instances concurrently.  The critical sections are
   hashtable bookkeeping only — never index loading — so one mutex is
   cheap. *)
type t = {
  lock : Mutex.t;
  budget : int;
  table : (string, entry) Hashtbl.t;
  mutable used : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Resident footprint estimate: the text bytes, one word per suffix-array
   slot collected so far, and three words per region (start, stop, array
   slot).  The point is a relative measure for the budget, not
   byte-exactness.  The PAT array collects its buckets as searches land
   in them, so an instance's cost grows while it is resident: [add]
   re-costs the resident entries before it makes room. *)
let cost_of_instance instance =
  let word = 8 in
  let slots =
    Pat.Suffix_array.collected_slots
      (Pat.Word_index.suffix_array (Pat.Instance.word_index instance))
  in
  Pat.Text.length (Pat.Instance.text instance)
  + (word * slots)
  + (3 * word * Pat.Instance.total_regions instance)

let create ~budget_bytes =
  {
    lock = Mutex.create ();
    budget = max budget_bytes 0;
    table = Hashtbl.create 16;
    used = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let count t = with_lock t (fun () -> Hashtbl.length t.table)
let used_bytes t = with_lock t (fun () -> t.used)
let budget_bytes t = t.budget

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  let hit =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
            e.stamp <- tick t;
            t.hits <- t.hits + 1;
            Some e.instance
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  (match hit with
  | Some _ ->
      Stdx.Stats.(incr cache_hits);
      if Obs.Trace.enabled () then
        Obs.Trace.instant "cache.hit" ~attrs:[ ("key", Obs.Trace.Str key) ]
  | None ->
      Stdx.Stats.(incr cache_misses);
      if Obs.Trace.enabled () then
        Obs.Trace.instant "cache.miss" ~attrs:[ ("key", Obs.Trace.Str key) ]);
  hit

let remove_locked t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.table key;
      t.used <- t.used - e.cost

let remove t key = with_lock t (fun () -> remove_locked t key)

let evict_lru_locked t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.stamp <= e.stamp -> acc
        | _ -> Some (key, e))
      t.table None
  in
  match victim with
  | None -> None
  | Some (key, _) ->
      remove_locked t key;
      t.evictions <- t.evictions + 1;
      Some key

(* Bring every resident entry's cost up to date: searches since its
   admission may have collected more of its word starts. *)
let recost_locked t =
  Hashtbl.iter
    (fun _ e ->
      let cost = cost_of_instance e.instance in
      t.used <- t.used + cost - e.cost;
      e.cost <- cost)
    t.table

let add t key instance =
  let cost = cost_of_instance instance in
  let evicted =
    with_lock t (fun () ->
        remove_locked t key;
        recost_locked t;
        (* an instance larger than the whole budget is not cached at all *)
        if cost > t.budget then []
        else begin
          let evicted = ref [] in
          let continue = ref true in
          while t.used + cost > t.budget && !continue do
            match evict_lru_locked t with
            | Some victim -> evicted := victim :: !evicted
            | None -> continue := false
          done;
          Hashtbl.replace t.table key { instance; cost; stamp = tick t };
          t.used <- t.used + cost;
          List.rev !evicted
        end)
  in
  List.iter
    (fun victim ->
      Stdx.Stats.(incr cache_evictions);
      if Obs.Trace.enabled () then
        Obs.Trace.instant "cache.evict"
          ~attrs:[ ("key", Obs.Trace.Str victim) ])
    evicted

type stats = { hits : int; misses : int; evictions : int }

let stats (t : t) =
  with_lock t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions })

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "hits=%d misses=%d evictions=%d" s.hits s.misses
    s.evictions
