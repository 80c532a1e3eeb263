(* The live counters are owned by the Obs.Metrics registry under
   [engine.*] names; this module is the engine-facing facade over
   them.  Keeping each quantity a registry counter means tracing and
   metrics tooling see exactly the cells the paper's work accounting
   increments — no double bookkeeping. *)

type counter = Obs.Metrics.counter

let bytes_scanned = Obs.Metrics.counter "engine.bytes_scanned"
let bytes_parsed = Obs.Metrics.counter "engine.bytes_parsed"
let index_ops = Obs.Metrics.counter "engine.index_ops"
let region_comparisons = Obs.Metrics.counter "engine.region_comparisons"
let word_lookups = Obs.Metrics.counter "engine.word_lookups"
let objects_built = Obs.Metrics.counter "engine.objects_built"
let regions_produced = Obs.Metrics.counter "engine.regions_produced"
let cache_hits = Obs.Metrics.counter "engine.cache_hits"
let cache_misses = Obs.Metrics.counter "engine.cache_misses"
let cache_evictions = Obs.Metrics.counter "engine.cache_evictions"

let incr = Obs.Metrics.incr
let add_to = Obs.Metrics.add_to
let value = Obs.Metrics.value

type t = {
  mutable bytes_scanned : int;
  mutable bytes_parsed : int;
  mutable index_ops : int;
  mutable region_comparisons : int;
  mutable word_lookups : int;
  mutable objects_built : int;
  mutable regions_produced : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
}

let create () =
  {
    bytes_scanned = 0;
    bytes_parsed = 0;
    index_ops = 0;
    region_comparisons = 0;
    word_lookups = 0;
    objects_built = 0;
    regions_produced = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
  }

let reset t =
  t.bytes_scanned <- 0;
  t.bytes_parsed <- 0;
  t.index_ops <- 0;
  t.region_comparisons <- 0;
  t.word_lookups <- 0;
  t.objects_built <- 0;
  t.regions_produced <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.cache_evictions <- 0

let snapshot () =
  {
    bytes_scanned = value bytes_scanned;
    bytes_parsed = value bytes_parsed;
    index_ops = value index_ops;
    region_comparisons = value region_comparisons;
    word_lookups = value word_lookups;
    objects_built = value objects_built;
    regions_produced = value regions_produced;
    cache_hits = value cache_hits;
    cache_misses = value cache_misses;
    cache_evictions = value cache_evictions;
  }

let diff ~before ~after =
  {
    bytes_scanned = after.bytes_scanned - before.bytes_scanned;
    bytes_parsed = after.bytes_parsed - before.bytes_parsed;
    index_ops = after.index_ops - before.index_ops;
    region_comparisons = after.region_comparisons - before.region_comparisons;
    word_lookups = after.word_lookups - before.word_lookups;
    objects_built = after.objects_built - before.objects_built;
    regions_produced = after.regions_produced - before.regions_produced;
    cache_hits = after.cache_hits - before.cache_hits;
    cache_misses = after.cache_misses - before.cache_misses;
    cache_evictions = after.cache_evictions - before.cache_evictions;
  }

let add acc x =
  acc.bytes_scanned <- acc.bytes_scanned + x.bytes_scanned;
  acc.bytes_parsed <- acc.bytes_parsed + x.bytes_parsed;
  acc.index_ops <- acc.index_ops + x.index_ops;
  acc.region_comparisons <- acc.region_comparisons + x.region_comparisons;
  acc.word_lookups <- acc.word_lookups + x.word_lookups;
  acc.objects_built <- acc.objects_built + x.objects_built;
  acc.regions_produced <- acc.regions_produced + x.regions_produced;
  acc.cache_hits <- acc.cache_hits + x.cache_hits;
  acc.cache_misses <- acc.cache_misses + x.cache_misses;
  acc.cache_evictions <- acc.cache_evictions + x.cache_evictions

let pp ppf t =
  Format.fprintf ppf
    "scanned=%dB parsed=%dB index_ops=%d cmps=%d lookups=%d objs=%d regions=%d"
    t.bytes_scanned t.bytes_parsed t.index_ops t.region_comparisons
    t.word_lookups t.objects_built t.regions_produced;
  (* cache traffic appears only for cache-backed runs, so the rendering
     of cache-less executions (most tests, the cram transcripts) is
     unchanged *)
  if t.cache_hits <> 0 || t.cache_misses <> 0 || t.cache_evictions <> 0 then
    Format.fprintf ppf " cache=%dh/%dm/%de" t.cache_hits t.cache_misses
      t.cache_evictions
