(* Tests for the multicore execution subsystem: the domain worker pool
   (graceful shutdown with in-flight tasks, per-task deadlines), the
   master qcheck property that the per-file driver is result-identical
   to the sequential reference Corpus.run at any jobs count, and the
   fingerprint-keyed result cache including automatic invalidation
   across a catalog refresh. *)

let or_fail = function Ok x -> x | Error e -> Alcotest.fail e

(* submit every thunk, then await them in submission order *)
let run_all pool thunks =
  List.map Exec.Pool.await (List.map (Exec.Pool.submit pool) thunks)

(* monotonic busy-wait so the pool tests need no Unix dependency *)
let spin_ms ms =
  let t0 = Obs.Trace.now_ms () in
  while Obs.Trace.now_ms () -. t0 < ms do
    ignore (Sys.opaque_identity ())
  done

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let pool_runs_tasks_in_order () =
  Exec.Pool.with_pool ~jobs:3 @@ fun pool ->
  let results =
    run_all pool (List.init 20 (fun i () -> i * i))
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "result order preserved" (i * i) v
      | Error e -> Alcotest.fail e)
    results

let pool_graceful_shutdown_with_in_flight_tasks () =
  let completed = Atomic.make 0 in
  let pool = Exec.Pool.create ~jobs:2 () in
  let handles =
    List.init 8 (fun _ ->
        Exec.Pool.submit pool (fun () ->
            spin_ms 10.0;
            Atomic.incr completed))
  in
  (* workers are still spinning on the first tasks; the rest are queued *)
  Exec.Pool.shutdown pool;
  Alcotest.(check int)
    "every queued task drained before the workers exited" 8
    (Atomic.get completed);
  List.iter
    (fun h ->
      match Exec.Pool.await h with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("task failed during shutdown: " ^ e))
    handles;
  (* shutdown is idempotent, and later submissions are refused *)
  Exec.Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Exec.Pool.submit: pool is shut down") (fun () ->
      ignore (Exec.Pool.submit pool (fun () -> ())))

let pool_task_exception_is_captured () =
  Exec.Pool.with_pool ~jobs:1 @@ fun pool ->
  let h = Exec.Pool.submit pool (fun () -> failwith "boom") in
  (match Exec.Pool.await h with
  | Ok () -> Alcotest.fail "expected the task to fail"
  | Error e ->
      Alcotest.(check bool) "message mentions the exception" true
        (Astring.String.is_infix ~affix:"boom" e));
  (* the worker survived the exception and still takes tasks *)
  match Exec.Pool.await (Exec.Pool.submit pool (fun () -> 41 + 1)) with
  | Ok v -> Alcotest.(check int) "worker survives" 42 v
  | Error e -> Alcotest.fail e

let pool_task_deadline_expires () =
  Exec.Pool.with_pool ~jobs:1 @@ fun pool ->
  let h =
    Exec.Pool.submit ~timeout_ms:5.0 pool (fun () ->
        (* a well-behaved long task polls the deadline, like the
           region-algebra evaluator does once per operator *)
        let rec loop n =
          Obs.Deadline.check ();
          spin_ms 2.0;
          if n = 0 then () else loop (n - 1)
        in
        loop 1000)
  in
  match Exec.Pool.await h with
  | Ok () -> Alcotest.fail "expected a timeout"
  | Error e ->
      Alcotest.(check bool)
        ("timeout message, got: " ^ e)
        true
        (Astring.String.is_infix ~affix:"timed out" e)

let pool_deadline_interrupts_eval () =
  (* an adversarial direct-inclusion expression over a late-blocked
     window is quadratic (bench E8's worst case); the evaluator's
     per-operator poll must abort it *)
  let n = 3000 in
  let windows = [ (0, (3 * n) + 3) ] in
  let points = List.init n (fun i -> ((3 * i) + 1, (3 * i) + 2)) in
  let wrappers = List.init n (fun i -> (3 * i, (3 * i) + 3)) in
  let text =
    Pat.Text.of_string (String.make ((3 * n) + 4) 'x')
  in
  let instance =
    Pat.Instance.create text
      [
        ("W", Pat.Region_set.of_pairs windows);
        ("P", Pat.Region_set.of_pairs points);
        ("U", Pat.Region_set.of_pairs wrappers);
      ]
  in
  let expr = Ralg.Expr_parser.parse_exn "W >d P" in
  Exec.Pool.with_pool ~jobs:1 @@ fun pool ->
  let h =
    Exec.Pool.submit ~timeout_ms:1.0 pool (fun () ->
        (* evaluate repeatedly so a fast machine still crosses the
           deadline between operator applications *)
        for _ = 1 to 10_000 do
          ignore (Ralg.Eval.eval instance expr)
        done)
  in
  match Exec.Pool.await h with
  | Ok () -> Alcotest.fail "expected the evaluator to be interrupted"
  | Error e ->
      Alcotest.(check bool)
        ("timeout surfaced from the eval loop, got: " ^ e)
        true
        (Astring.String.is_infix ~affix:"timed out" e)

(* ------------------------------------------------------------------ *)
(* run_parallel == sequential                                          *)

let rows_t =
  Alcotest.testable
    (Fmt.Dump.list (Fmt.Dump.pair Fmt.Dump.string (Fmt.Dump.list Odb.Value.pp)))
    (List.equal (fun (f1, r1) (f2, r2) ->
         String.equal f1 f2 && List.equal Odb.Value.equal r1 r2))

let bibtex_corpus sizes =
  let files =
    List.mapi
      (fun i n ->
        ( Printf.sprintf "refs%d.bib" i,
          Pat.Text.of_string
            (Workload.Bibtex_gen.generate
               { (Workload.Bibtex_gen.with_size n) with seed = 1000 + i }) ))
      sizes
  in
  or_fail (Oqf.Corpus.make_full Fschema.Bibtex_schema.view files)

let log_texts sizes =
  List.mapi
    (fun i n ->
      ( Printf.sprintf "node%d.log" i,
        Workload.Log_gen.generate
          { (Workload.Log_gen.with_size n) with seed = 2000 + i } ))
    sizes

let log_corpus_of texts =
  or_fail
    (Oqf.Corpus.make_full Fschema.Log_schema.view
       (List.map (fun (name, text) -> (name, Pat.Text.of_string text)) texts))

let log_corpus sizes = log_corpus_of (log_texts sizes)

let bibtex_queries =
  [
    {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
    {|SELECT r.Key FROM References r|};
    {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|};
    {|SELECT r FROM References r WHERE r.Abstract CONTAINS "derivation"|};
  ]

let log_queries =
  [
    {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|};
    {|SELECT e FROM Entries e WHERE e.Level = "WARN"|};
  ]

let check_parallel_equals_sequential corpus q_text jobs =
  let q = Odb.Query_parser.parse_exn q_text in
  let seq = or_fail (Oqf.Corpus.run corpus q) in
  let par = or_fail (Exec.Driver.run_parallel ~jobs corpus q) in
  Alcotest.check rows_t
    (Printf.sprintf "rows agree at jobs=%d: %s" jobs q_text)
    seq.Oqf.Corpus.rows par.Exec.Driver.rows;
  Alcotest.(check (list string))
    "per-file outcomes cover the same files in corpus order"
    (List.map fst seq.Oqf.Corpus.per_file)
    (List.map fst par.Exec.Driver.per_file);
  Alcotest.(check bool) "not from cache" false par.Exec.Driver.from_cache

let parallel_equals_sequential_qcheck =
  QCheck.Test.make ~count:25
    ~name:"run_parallel == sequential Corpus.run (any jobs count)"
    QCheck.(
      quad
        (int_range 1 4)  (* number of files *)
        (int_range 3 14)  (* entries per file *)
        (int_range 1 8)  (* jobs *)
        (pair bool (int_range 0 9)) (* workload pick, query pick *))
    (fun (n_files, size, jobs, (use_log, q_pick)) ->
      let sizes = List.init n_files (fun i -> size + (i * 3)) in
      let corpus, queries =
        if use_log then (log_corpus sizes, log_queries)
        else (bibtex_corpus sizes, bibtex_queries)
      in
      let q_text = List.nth queries (q_pick mod List.length queries) in
      let q = Odb.Query_parser.parse_exn q_text in
      let seq =
        match Oqf.Corpus.run corpus q with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "sequential failed: %s" e
      in
      let par =
        match Exec.Driver.run_parallel ~jobs corpus q with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "parallel failed: %s" e
      in
      if
        not
          (List.equal
             (fun (f1, r1) (f2, r2) ->
               String.equal f1 f2 && List.equal Odb.Value.equal r1 r2)
             seq.Oqf.Corpus.rows par.Exec.Driver.rows)
      then
        QCheck.Test.fail_reportf
          "rows differ (files=%d size=%d jobs=%d log=%b q=%s)" n_files size
          jobs use_log q_text;
      true)

let parallel_battery () =
  (* a fixed battery on a mixed-size corpus, at every jobs count 1..8,
     including jobs > files; CI runs the suite under OQF_JOBS=4 and this
     also exercises the env-derived default *)
  let corpus = bibtex_corpus [ 20; 4; 12; 8 ] in
  List.iter
    (fun q -> check_parallel_equals_sequential corpus q (Exec.Driver.default_jobs ()))
    bibtex_queries;
  List.iter
    (fun jobs ->
      check_parallel_equals_sequential corpus
        {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        jobs)
    [ 1; 2; 3; 8 ]

let parallel_per_file_covers_corpus () =
  (* more files than workers: each file is its own task, and the
     outcomes come back once per file, in corpus order *)
  let corpus = log_corpus [ 30; 10; 10; 5; 5 ] in
  let q = Odb.Query_parser.parse_exn {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|} in
  let r = or_fail (Exec.Driver.run_parallel ~jobs:2 corpus q) in
  Alcotest.(check (list string))
    "one outcome per file, in corpus order" (Oqf.Corpus.files corpus)
    (List.map fst r.Exec.Driver.per_file)

let empty_corpus_answers_nothing () =
  (* a zero-file corpus is a query with no answers on every door;
     run_parallel must not ask the pool for zero workers *)
  let corpus = Oqf.Corpus.of_sources [] in
  let q = Odb.Query_parser.parse_exn {|SELECT e FROM Entries e|} in
  let check door (r : (Exec.Driver.outcome, string) result) =
    match r with
    | Ok o ->
        Alcotest.check rows_t (door ^ ": no rows") [] o.Exec.Driver.rows;
        Alcotest.(check int) (door ^ ": no files") 0
          (List.length o.Exec.Driver.per_file)
    | Error e -> Alcotest.failf "%s failed on an empty corpus: %s" door e
  in
  List.iter
    (fun jobs ->
      check "run_parallel" (Exec.Driver.run_parallel ~jobs corpus q);
      check "run_parallel (cached)"
        (Exec.Driver.run_parallel ~jobs ~cache:(Exec.Rcache.create ()) corpus
           q))
    [ 1; 4 ];
  let streamed = ref 0 in
  check "run_streaming"
    (Exec.Pool.with_pool ~jobs:1 (fun pool ->
         Exec.Driver.run_streaming ~pool
           ~on_rows:(fun ~file:_ _ -> incr streamed)
           corpus q));
  Alcotest.(check int) "nothing streamed" 0 !streamed

let parallel_rejects_bad_jobs () =
  let corpus = log_corpus [ 3 ] in
  let q = Odb.Query_parser.parse_exn {|SELECT e FROM Entries e|} in
  (match Exec.Driver.run_parallel ~jobs:0 corpus q with
  | Ok _ -> Alcotest.fail "jobs=0 must be rejected"
  | Error e ->
      Alcotest.(check bool) "names the bad value" true
        (Astring.String.is_infix ~affix:"jobs must be at least 1" e));
  match Exec.Driver.run_parallel ~jobs:(-2) corpus q with
  | Ok _ -> Alcotest.fail "negative jobs must be rejected"
  | Error _ -> ()

let parallel_propagates_deterministic_error () =
  let corpus = bibtex_corpus [ 6; 6; 6 ] in
  (* unknown class fails at compile time in every file; the error must
     name the first file in corpus order, like the sequential runner *)
  let q = Odb.Query_parser.parse_exn {|SELECT x FROM Nope x|} in
  let seq_err =
    match Oqf.Corpus.run corpus q with
    | Error e -> e
    | Ok _ -> Alcotest.fail "expected sequential failure"
  in
  List.iter
    (fun jobs ->
      match Exec.Driver.run_parallel ~jobs corpus q with
      | Ok _ -> Alcotest.fail "expected parallel failure"
      | Error e -> Alcotest.(check string) "same error as sequential" seq_err e)
    [ 1; 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Rcache                                                              *)

let rcache_hit_and_normalization () =
  let corpus = log_corpus [ 12 ] in
  let cache = Exec.Rcache.create () in
  let q1 =
    Odb.Query_parser.parse_exn
      {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}
  in
  (* same query, different spacing: must normalize to the same key *)
  let q2 =
    Odb.Query_parser.parse_exn
      {|SELECT   e.Service
        FROM Entries   e
        WHERE e.Level = "ERROR"|}
  in
  let r1 = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus q1) in
  Alcotest.(check bool) "first run misses" false r1.Exec.Driver.from_cache;
  let r2 = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus q2) in
  Alcotest.(check bool) "reformatted query hits" true r2.Exec.Driver.from_cache;
  Alcotest.check rows_t "cached rows identical" r1.Exec.Driver.rows
    r2.Exec.Driver.rows;
  let s = Exec.Rcache.stats cache in
  Alcotest.(check int) "one hit" 1 s.Exec.Rcache.hits;
  Alcotest.(check int) "one miss" 1 s.Exec.Rcache.misses

let rcache_parallel_populates_too () =
  let corpus = log_corpus [ 8; 8 ] in
  let cache = Exec.Rcache.create () in
  let q =
    Odb.Query_parser.parse_exn
      {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}
  in
  let r1 = or_fail (Exec.Driver.run_parallel ~jobs:2 ~cache corpus q) in
  let r2 = or_fail (Exec.Driver.run_parallel ~jobs:2 ~cache corpus q) in
  Alcotest.(check bool) "second parallel run served from cache" true
    r2.Exec.Driver.from_cache;
  Alcotest.check rows_t "same rows" r1.Exec.Driver.rows r2.Exec.Driver.rows

let rcache_lru_eviction () =
  let corpus = log_corpus [ 10 ] in
  let cache = Exec.Rcache.create ~capacity:2 () in
  let q n =
    Odb.Query_parser.parse_exn
      (Printf.sprintf {|SELECT e FROM Entries e WHERE e.Service = "p%d"|} n)
  in
  ignore (or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus (q 1)));
  ignore (or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus (q 2)));
  (* touch q1 so q2 is the LRU victim when q3 arrives *)
  ignore (or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus (q 1)));
  ignore (or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus (q 3)));
  let r1 = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus (q 1)) in
  Alcotest.(check bool) "recently-used entry survived" true
    r1.Exec.Driver.from_cache;
  let r2 = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus (q 2)) in
  Alcotest.(check bool) "LRU entry was evicted" false r2.Exec.Driver.from_cache;
  let s = Exec.Rcache.stats cache in
  Alcotest.(check bool) "evictions counted" true (s.Exec.Rcache.evictions >= 1)

(* eviction edges, driven through the raw Rcache API so the recency
   bookkeeping is visible without a corpus in the way *)

let rkey text fp =
  Exec.Rcache.key ~query:(Odb.Query_parser.parse_exn text) ~fingerprint:fp

let payload file = [ (file, [ Odb.Value.Str file ]) ]

let rcache_capacity_one () =
  let cache = Exec.Rcache.create ~capacity:1 () in
  let k1 = rkey {|SELECT e FROM Entries e WHERE e.Pid = "1"|} "fp" in
  let k2 = rkey {|SELECT e FROM Entries e WHERE e.Pid = "2"|} "fp" in
  Exec.Rcache.add cache k1 (payload "a");
  Alcotest.(check bool) "sole entry resident" true
    (Exec.Rcache.find cache k1 <> None);
  Exec.Rcache.add cache k2 (payload "b");
  Alcotest.(check bool) "previous entry evicted" true
    (Exec.Rcache.find cache k1 = None);
  Alcotest.(check bool) "new entry resident" true
    (Exec.Rcache.find cache k2 <> None);
  let s = Exec.Rcache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Exec.Rcache.evictions;
  Alcotest.(check int) "one resident entry" 1 s.Exec.Rcache.entries

let rcache_reinsert_refreshes_lru () =
  let cache = Exec.Rcache.create ~capacity:2 () in
  let k n = rkey (Printf.sprintf {|SELECT e FROM Entries e WHERE e.Pid = "%d"|} n) "fp" in
  Exec.Rcache.add cache (k 1) (payload "v1");
  Exec.Rcache.add cache (k 2) (payload "v2");
  (* re-adding key 1 must replace its payload in place (no growth) and
     mark it most recently used, leaving key 2 as the victim *)
  Exec.Rcache.add cache (k 1) (payload "v1'");
  Alcotest.(check int) "reinsertion does not grow the cache" 2
    (Exec.Rcache.stats cache).Exec.Rcache.entries;
  (match Exec.Rcache.find cache (k 1) with
  | Some [ (f, _) ] -> Alcotest.(check string) "payload replaced" "v1'" f
  | _ -> Alcotest.fail "reinserted entry lost");
  Exec.Rcache.add cache (k 3) (payload "v3");
  Alcotest.(check bool) "refreshed key survives the next eviction" true
    (Exec.Rcache.find cache (k 1) <> None);
  Alcotest.(check bool) "stale key is the victim" true
    (Exec.Rcache.find cache (k 2) = None)

let rcache_fingerprint_partitions_keys () =
  let cache = Exec.Rcache.create () in
  let texts =
    [
      {|SELECT e FROM Entries e WHERE e.Pid = "1"|};
      {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|};
    ]
  in
  List.iter (fun t -> Exec.Rcache.add cache (rkey t "fp-before") (payload t)) texts;
  (* a corpus change (e.g. one appended member) re-fingerprints every
     key, so no row cached under the old corpus can be served *)
  List.iter
    (fun t ->
      Alcotest.(check bool) "old-fingerprint row not served" true
        (Exec.Rcache.find cache (rkey t "fp-after") = None))
    texts;
  List.iter
    (fun t ->
      Alcotest.(check bool) "old rows still keyed separately" true
        (Exec.Rcache.find cache (rkey t "fp-before") <> None))
    texts

(* ------------------------------------------------------------------ *)
(* Containment layer: Oqf.Subsume + Rcache.find_contained              *)

let parse_q = Odb.Query_parser.parse_exn

let subsume_residual_detection () =
  let broad = parse_q {|SELECT e FROM Entries e|} in
  let narrow = parse_q {|SELECT e FROM Entries e WHERE e.Level = "ERROR"|} in
  (match Oqf.Subsume.subsumes narrow ~by:broad with
  | Some _ -> ()
  | None -> Alcotest.fail "conjunct-superset subsumption not detected");
  Alcotest.(check bool) "the superset is not subsumed by the subset" true
    (Oqf.Subsume.subsumes broad ~by:narrow = None);
  (* a projected (non-bare) select cannot decide the residual per row,
     so the conservative contract refuses it *)
  let broad_proj = parse_q {|SELECT e.Service FROM Entries e|} in
  let narrow_proj =
    parse_q {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}
  in
  Alcotest.(check bool) "row-undecidable residual refused" true
    (Oqf.Subsume.subsumes narrow_proj ~by:broad_proj = None);
  Alcotest.(check bool) "differing select lists never subsume" true
    (Oqf.Subsume.subsumes narrow ~by:broad_proj = None)

let rcache_containment_serves_subset () =
  let corpus = log_corpus [ 25; 15 ] in
  let broad = parse_q {|SELECT e FROM Entries e|} in
  let narrow = parse_q {|SELECT e FROM Entries e WHERE e.Level = "ERROR"|} in
  (* the reference: a fresh, cache-free evaluation of the narrow query *)
  let fresh = or_fail (Exec.Driver.run_parallel ~jobs:1 corpus narrow) in
  let cache = Exec.Rcache.create () in
  ignore (or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus broad));
  let served = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus narrow) in
  Alcotest.(check bool) "subset served from cache" true
    served.Exec.Driver.from_cache;
  (match served.Exec.Driver.cache_superset with
  | Some s ->
      Alcotest.(check string) "names the superset query"
        (Odb.Query.to_string broad) s
  | None -> Alcotest.fail "containment hit must name its superset");
  Alcotest.check rows_t "filtered rows byte-identical to a fresh run"
    fresh.Exec.Driver.rows served.Exec.Driver.rows;
  Alcotest.(check int) "containment hit counted" 1
    (Exec.Rcache.stats cache).Exec.Rcache.containment_hits;
  (* serving by containment populates the exact key, so the same probe
     now hits directly, with no superset attribution *)
  let again = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus narrow) in
  Alcotest.(check bool) "exact hit on repeat" true
    again.Exec.Driver.from_cache;
  Alcotest.(check bool) "no superset attribution on an exact hit" true
    (again.Exec.Driver.cache_superset = None);
  Alcotest.(check int) "no second containment hit" 1
    (Exec.Rcache.stats cache).Exec.Rcache.containment_hits

let rcache_containment_disabled () =
  let corpus = log_corpus [ 10 ] in
  let broad = parse_q {|SELECT e FROM Entries e|} in
  let narrow = parse_q {|SELECT e FROM Entries e WHERE e.Level = "ERROR"|} in
  let cache = Exec.Rcache.create ~containment:false () in
  ignore (or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus broad));
  let r = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus narrow) in
  Alcotest.(check bool) "no containment serving when disabled" false
    r.Exec.Driver.from_cache;
  Alcotest.(check int) "no containment hits" 0
    (Exec.Rcache.stats cache).Exec.Rcache.containment_hits

(* An overlapping batch, the shape a dashboard sends: a broad sweep per
   class of interest, then refinements whose WHERE conjuncts extend an
   earlier query's.  With the containment layer on, a refinement is
   answered by filtering a cached superset's rows, so the batch must
   evaluate at least 20% fewer queries than with exact keys only, at
   the same rows per query.  Transient faults cannot move the counts:
   [pool.task] retries them inside the task, below the cache. *)
let overlapping_batch =
  [
    {|SELECT e FROM Entries e|};
    {|SELECT e FROM Entries e WHERE e.Level = "ERROR"|};
    {|SELECT e FROM Entries e WHERE e.Level = "ERROR" AND e.Service = "db"|};
    {|SELECT e FROM Entries e WHERE e.Level = "WARN"|};
    {|SELECT e FROM Entries e WHERE e.Service = "auth"|};
    {|SELECT e FROM Entries e WHERE e.Level = "FATAL"|};
    {|SELECT e FROM Entries e WHERE e.Service = "auth" AND e.Level = "INFO"|};
    (* projected select: outside the containment contract, exact-only *)
    {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|};
    {|SELECT e FROM Entries e WHERE e.Message CONTAINS "timeout"|};
  ]

let containment_evaluates_fewer () =
  let corpus =
    log_corpus_of
      (List.init 6 (fun i ->
           ( Printf.sprintf "node%d.log" i,
             Workload.Log_gen.generate
               { (Workload.Log_gen.with_size 800) with seed = 310 + i } )))
  in
  let queries = List.map parse_q overlapping_batch in
  let run ~containment =
    let cache = Exec.Rcache.create ~containment () in
    let rows =
      Exec.Pool.with_pool ~jobs:1 @@ fun pool ->
      List.map
        (fun q ->
          (or_fail
             (Exec.Driver.run_streaming ~cache ~pool
                ~on_rows:(fun ~file:_ _ -> ())
                corpus q))
            .Exec.Driver.rows)
        queries
    in
    let s = Exec.Rcache.stats cache in
    (* a containment-served probe counts an exact miss first, so the
       queries evaluated are the misses nothing absorbed *)
    (rows, s.Exec.Rcache.misses - s.Exec.Rcache.containment_hits)
  in
  let exact_rows, exact = run ~containment:false in
  let rows, evaluated = run ~containment:true in
  List.iter2
    (fun text (a, b) -> Alcotest.check rows_t text a b)
    overlapping_batch
    (List.combine exact_rows rows);
  Alcotest.(check int) "exact keys evaluate every query"
    (List.length queries) exact;
  if (exact - evaluated) * 5 < exact then
    Alcotest.failf "containment evaluated %d of %d queries (gate: 20%% fewer)"
      evaluated exact

let temp_dir () =
  let path = Filename.temp_file "oqf_exec_test" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rcache_invalidated_by_catalog_refresh () =
  let dir = temp_dir () in
  let log_path = Filename.concat dir "app.log" in
  let base = Workload.Log_gen.generate (Workload.Log_gen.with_size 30) in
  let grown = Workload.Log_gen.generate (Workload.Log_gen.with_size 40) in
  write_file log_path base;
  let cat = or_fail (Oqf_catalog.Catalog.init (Filename.concat dir "cat")) in
  let (_ : Oqf_catalog.Catalog.entry) =
    or_fail (Oqf_catalog.Catalog.add cat ~schema:"log" log_path)
  in
  let cache = Exec.Rcache.create () in
  let q =
    Odb.Query_parser.parse_exn
      {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}
  in
  let corpus = or_fail (Oqf.Corpus.of_catalog cat ~schema:"log") in
  let fp_before = Exec.Rcache.fingerprint corpus in
  let r1 = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus q) in
  let r2 = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus q) in
  Alcotest.(check bool) "warm repeat hits" true r2.Exec.Driver.from_cache;
  (* the source grows; refresh extends the index; the rebuilt corpus
     fingerprints differently, so the cached rows cannot be served *)
  write_file log_path grown;
  (match or_fail (Oqf_catalog.Catalog.refresh cat log_path) with
  | Oqf_catalog.Catalog.Extended _ -> ()
  | o ->
      Alcotest.failf "expected incremental extension, got %a"
        Oqf_catalog.Catalog.pp_refresh o);
  let corpus' = or_fail (Oqf.Corpus.of_catalog cat ~schema:"log") in
  let fp_after = Exec.Rcache.fingerprint corpus' in
  Alcotest.(check bool) "refresh changed the corpus fingerprint" false
    (String.equal fp_before fp_after);
  let r3 = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus' q) in
  Alcotest.(check bool) "post-refresh run recomputes" false
    r3.Exec.Driver.from_cache;
  Alcotest.(check bool)
    "the grown log has at least as many answers" true
    (List.length r3.Exec.Driver.rows >= List.length r1.Exec.Driver.rows);
  let r4 = or_fail (Exec.Driver.run_parallel ~jobs:1 ~cache corpus' q) in
  Alcotest.(check bool) "fresh result cached under the new key" true
    r4.Exec.Driver.from_cache

(* The whole-corpus formula the corpus's fingerprint cell must keep
   computing: MD5 over each member's name, length and text digest. *)
let fingerprint_oracle corpus =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, (src : Oqf.Execute.source)) ->
      let text = src.text in
      Buffer.add_string buf name;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int (Pat.Text.length text));
      Buffer.add_char buf ':';
      Buffer.add_string buf
        (Digest.to_hex (Digest.string (Pat.Text.unsafe_contents text)));
      Buffer.add_char buf ';')
    (Oqf.Corpus.sources corpus);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let fingerprint_matches_the_formula () =
  let texts = log_texts [ 6; 4; 3 ] in
  let corpus = log_corpus_of texts in
  let fp = Oqf.Corpus.fingerprint corpus in
  Alcotest.(check string) "equals the whole-corpus formula"
    (fingerprint_oracle corpus) fp;
  Alcotest.(check string) "the cached value answers again" fp
    (Exec.Rcache.fingerprint corpus);
  (* one member's text grows by one byte *)
  let grown =
    log_corpus_of
      (List.mapi
         (fun i (name, text) -> (name, if i = 1 then text ^ "\n" else text))
         texts)
  in
  let fp' = Oqf.Corpus.fingerprint grown in
  Alcotest.(check bool) "a one-byte growth changes it" false
    (String.equal fp fp');
  Alcotest.(check string) "the grown corpus equals the formula too"
    (fingerprint_oracle grown) fp'

let fingerprint_is_domain_safe () =
  let corpus = log_corpus [ 40; 30; 20 ] in
  (* four domains released together force the empty cell at once *)
  let ready = Atomic.make 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 4 do
              Domain.cpu_relax ()
            done;
            Oqf.Corpus.fingerprint corpus))
  in
  let expected = fingerprint_oracle corpus in
  List.iter
    (fun d ->
      Alcotest.(check string) "every domain gets the formula's value" expected
        (Domain.join d))
    domains

(* ------------------------------------------------------------------ *)
(* batch + workload-labelled metrics                                   *)

let batch_runs_all_queries () =
  let corpus = bibtex_corpus [ 10; 6 ] in
  let cache = Exec.Rcache.create () in
  let queries =
    List.map Odb.Query_parser.parse_exn
      [
        {|SELECT r.Key FROM References r|};
        {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
        {|SELECT r.Key FROM References r|};  (* repeat: cache hit *)
      ]
  in
  (* the shape of [oqf batch]: queries in input order through the
     streaming door on one shared pool and one shared cache *)
  let results =
    Exec.Pool.with_pool ~jobs:2 @@ fun pool ->
    List.mapi
      (fun i q ->
        match
          Exec.Driver.run_streaming ~cache ~pool
            ~on_rows:(fun ~file:_ _ -> ())
            corpus q
        with
        | Ok o -> o
        | Error e -> Alcotest.failf "query %d failed: %s" i e)
      queries
  in
  List.iter2
    (fun q (o : Exec.Driver.outcome) ->
      Alcotest.check rows_t "each query answers like run_parallel"
        (or_fail (Exec.Driver.run_parallel ~jobs:1 corpus q)).Exec.Driver.rows
        o.Exec.Driver.rows)
    queries results;
  (* the repeated query hits the entry its first occurrence left *)
  match results with
  | [ a; b; c ] ->
      Alcotest.(check (list bool)) "only the repeat is served from the cache"
        [ false; false; true ]
        (List.map (fun (o : Exec.Driver.outcome) -> o.from_cache) [ a; b; c ]);
      Alcotest.check rows_t "repeat equals first" a.Exec.Driver.rows
        c.Exec.Driver.rows
  | _ -> Alcotest.fail "unreachable"

let workload_labelled_histograms () =
  let corpus = bibtex_corpus [ 5 ] in
  let q = Odb.Query_parser.parse_exn {|SELECT r.Key FROM References r|} in
  ignore (or_fail (Oqf.Corpus.run corpus q));
  let names = List.map fst (Obs.Metrics.histograms ()) in
  Alcotest.(check bool)
    "labelled latency histogram registered" true
    (List.mem {|query.latency_ms{workload="bibtex"}|} names);
  Alcotest.(check bool)
    "unlabelled alias still recorded" true
    (List.mem "query.latency_ms" names)

(* The driver is a query's one qlog writer: a driven query appends
   exactly one record, whose candidates and est_cost sum the per-file
   outcomes. *)
let qlog_one_record_per_query () =
  let corpus = log_corpus [ 30; 20 ] in
  let q =
    Odb.Query_parser.parse_exn
      {|SELECT e.Level FROM Entries e WHERE e.Service = "db"|}
  in
  let path = Filename.concat (temp_dir ()) "q.log" in
  let log = or_fail (Obs.Qlog.open_log path) in
  Obs.Qlog.install (Some log);
  let out =
    Fun.protect
      ~finally:(fun () ->
        Obs.Qlog.install None;
        Obs.Qlog.close log)
      (fun () ->
        or_fail
          (Exec.Driver.run_parallel ~jobs:2
             ~plan_mode:Oqf_cost.Planner.Cost_based
             ~qctx:{ Obs.Qlog.trace_id = "t-one"; workload = "test" }
             corpus q))
  in
  let per_file = List.map snd out.Exec.Driver.per_file in
  Alcotest.(check int) "both files answered from their index" 2
    (List.length per_file);
  let candidates =
    List.fold_left
      (fun acc (r : Oqf.Execute.outcome) -> acc + r.candidates_count)
      0 per_file
  and est_cost =
    List.fold_left
      (fun acc (r : Oqf.Execute.outcome) -> acc +. r.est_cost)
      0. per_file
  in
  let records, skipped =
    or_fail (Obs.Qlog.fold path ~init:[] ~f:(fun acc r -> r :: acc))
  in
  Alcotest.(check int) "no torn records" 0 skipped;
  match records with
  | [ r ] ->
      Alcotest.(check string) "trace id" "t-one" r.Obs.Qlog.trace_id;
      Alcotest.(check int) "candidates = sum over per_file" candidates
        r.Obs.Qlog.candidates;
      Alcotest.(check bool) "candidates recorded" true (candidates > 0);
      Alcotest.(check bool) "est_cost recorded" true (est_cost > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "est_cost %g = sum over per_file %g"
           r.Obs.Qlog.est_cost est_cost)
        true
        (Float.abs (r.Obs.Qlog.est_cost -. est_cost) <= 1e-9 *. est_cost)
  | rs -> Alcotest.failf "expected one qlog record, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Fail policies and fault recovery                                    *)

let with_faults spec f =
  match Stdx.Fault.parse spec with
  | Error e -> Alcotest.failf "fault spec %S rejected: %s" spec e
  | Ok config ->
      Stdx.Fault.set (Some config);
      Stdx.Retry.Breaker.reset_all ();
      Fun.protect
        ~finally:(fun () ->
          Stdx.Fault.set None;
          Stdx.Retry.Breaker.reset_all ())
        f

let error_query = {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}

let pool_worker_survives_raising_tasks () =
  (* one worker, raising tasks interleaved with good ones: if the
     worker died on the first failure, the later awaits would hang *)
  Exec.Pool.with_pool ~jobs:1 @@ fun pool ->
  match
    run_all pool
      [
        (fun () -> failwith "task 1 dies");
        (fun () -> 42);
        (fun () -> raise Not_found);
        (fun () -> 7);
      ]
  with
  | [ Error _; Ok 42; Error _; Ok 7 ] -> ()
  | rs -> Alcotest.failf "unexpected results (%d)" (List.length rs)

let degrade_falls_back_to_naive () =
  let corpus = log_corpus [ 10; 6 ] in
  let q = Odb.Query_parser.parse_exn error_query in
  let reference = or_fail (Oqf.Corpus.run corpus q) in
  with_faults "permanent:1.0,only:pool.task" (fun () ->
      (* every pool task fails, so every file must come back through
         the naive scan — with the same rows as the fault-free run *)
      let out =
        or_fail
          (Exec.Driver.run_parallel ~jobs:2
             ~fail_policy:Exec.Driver.Degrade corpus q)
      in
      Alcotest.check rows_t "rows identical to fault-free"
        reference.Oqf.Corpus.rows out.Exec.Driver.rows;
      Alcotest.(check bool) "degradation reported" true
        (out.Exec.Driver.degraded <> []);
      Alcotest.(check bool) "naive fallbacks present" true
        (List.exists
           (fun d -> d.Oqf.Degrade.action = Oqf.Degrade.Naive_fallback)
           out.Exec.Driver.degraded))

(* The naive fallback runs under the file's timeout: with every pool
   task failing, a whole-file parse of a >= 1 MB log must be cut off
   by a 1 ms budget (the parser polls the deadline per entry) and
   exclude the file, while with no budget it answers the fault-free
   rows. *)
let degrade_fallback_obeys_timeout () =
  let text =
    Workload.Log_gen.generate
      { (Workload.Log_gen.with_size 10_000) with seed = 77 }
  in
  Alcotest.(check bool) "at least 1 MB" true
    (String.length text >= 1_000_000);
  let corpus = log_corpus_of [ ("big.log", text) ] in
  let q = Odb.Query_parser.parse_exn error_query in
  let reference = or_fail (Exec.Driver.run_parallel ~jobs:1 corpus q) in
  Alcotest.(check bool) "the query has answers" true
    (reference.Exec.Driver.rows <> []);
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  with_faults "permanent:1.0,only:pool.task" (fun () ->
      let run ?timeout_ms () =
        Stdx.Retry.Breaker.reset_all ();
        or_fail
          (Exec.Driver.run_parallel ~jobs:1 ?timeout_ms
             ~fail_policy:Exec.Driver.Degrade corpus q)
      in
      let full, full_s = timed (fun () -> run ()) in
      Alcotest.check rows_t "no timeout: rows identical to fault-free"
        reference.Exec.Driver.rows full.Exec.Driver.rows;
      let cut, cut_s = timed (fun () -> run ~timeout_ms:1.0 ()) in
      Alcotest.check rows_t "timed out: no rows" [] cut.Exec.Driver.rows;
      (match cut.Exec.Driver.degraded with
      | [ d ] ->
          Alcotest.(check string) "excluded" "excluded"
            (Oqf.Degrade.action_to_string d.Oqf.Degrade.action);
          Alcotest.(check bool)
            ("detail names the timeout: " ^ d.Oqf.Degrade.detail)
            true
            (Astring.String.is_infix ~affix:"timed out"
               d.Oqf.Degrade.detail)
      | ds -> Alcotest.failf "expected one exclusion, got %d" (List.length ds));
      Alcotest.(check bool)
        (Printf.sprintf "cut off promptly (%.1f ms vs %.1f ms unbounded)"
           (cut_s *. 1000.) (full_s *. 1000.))
        true
        (cut_s *. 4. < full_s))

let partial_excludes_failed_files () =
  let corpus = log_corpus [ 10; 6 ] in
  let q = Odb.Query_parser.parse_exn error_query in
  with_faults "permanent:1.0,only:pool.task" (fun () ->
      let out =
        or_fail
          (Exec.Driver.run_parallel ~jobs:2
             ~fail_policy:Exec.Driver.Partial corpus q)
      in
      Alcotest.check rows_t "no rows survive" [] out.Exec.Driver.rows;
      Alcotest.(check (list (pair string string)))
        "exactly one exclusion per file, in corpus order"
        (List.map (fun f -> (f, "excluded")) (Oqf.Corpus.files corpus))
        (List.map
           (fun (d : Oqf.Degrade.t) ->
             (d.file, Oqf.Degrade.action_to_string d.action))
           out.Exec.Driver.degraded))

let fail_fast_still_fails () =
  let corpus = log_corpus [ 10; 6 ] in
  let q = Odb.Query_parser.parse_exn error_query in
  with_faults "permanent:1.0,only:pool.task" (fun () ->
      match Exec.Driver.run_parallel ~jobs:2 corpus q with
      | Ok _ -> Alcotest.fail "fail-fast must surface the task failure"
      | Error e ->
          Alcotest.(check string) "names the earliest failing file"
            "node0.log: injected permanent fault at pool.task" e)

let counter_value name =
  match Obs.Metrics.find_counter name with
  | Some c -> Obs.Metrics.value c
  | None -> 0

(* Once a fail-fast query aborts, its tasks that have not started skip
   their files.  Every task body visits the [pool.task] fault site
   before evaluating; with every visit failing transiently and a
   two-attempt retry budget that backs off 20 ms, each file that gets
   as far as evaluating costs two injections and holds the one worker
   long enough for the aborting caller to cancel the rest. *)
let fail_fast_cancels_the_rest () =
  let corpus = log_corpus (List.init 8 (fun _ -> 4)) in
  let q = Odb.Query_parser.parse_exn error_query in
  Stdx.Retry.set_site_policy "pool.task"
    { Stdx.Retry.attempts = 2; base_delay_ms = 20.; max_delay_ms = 20. };
  Fun.protect ~finally:(fun () ->
      Stdx.Retry.set_site_policy "pool.task" Stdx.Retry.default_policy)
  @@ fun () ->
  Exec.Pool.with_pool ~jobs:1 @@ fun pool ->
  let evaluated fail_policy =
    with_faults "transient:1.0,only:pool.task" (fun () ->
        let before = counter_value "fault.injected" in
        let result =
          Exec.Driver.run_streaming ~fail_policy ~pool
            ~on_rows:(fun ~file:_ _ -> ())
            corpus q
        in
        (* one FIFO worker: once this task has run, so has every task
           the query queued before it *)
        ignore (Exec.Pool.await (Exec.Pool.submit pool ignore));
        (result, (counter_value "fault.injected" - before) / 2))
  in
  (match evaluated Exec.Driver.Fail_fast with
  | Ok _, _ -> Alcotest.fail "fail-fast must surface the task failure"
  | Error e, n ->
      Alcotest.(check string) "names the first file"
        "node0.log: injected transient fault at pool.task" e;
      Alcotest.(check bool)
        (Printf.sprintf "at most the first file and the one in flight (%d)" n)
        true (n <= 2));
  List.iter
    (fun fail_policy ->
      match evaluated fail_policy with
      | Ok _, n ->
          Alcotest.(check int)
            (Exec.Driver.fail_policy_to_string fail_policy
            ^ ": every file evaluated")
            8 n
      | Error e, _ -> Alcotest.fail e)
    [ Exec.Driver.Partial; Exec.Driver.Degrade ]

(* The streaming path is the parallel path's engine on a shared pool.
   With every pool task failing, both must return the same rows and
   the same degradation report, and the streamed blocks must be the
   batch rows grouped by file. *)
let streaming_ladder_matches_parallel () =
  let corpus = log_corpus [ 10; 6; 8 ] in
  let q = Odb.Query_parser.parse_exn error_query in
  let per_file_actions (o : Exec.Driver.outcome) =
    List.map
      (fun (d : Oqf.Degrade.t) ->
        (d.file, Oqf.Degrade.action_to_string d.action, d.detail))
      o.Exec.Driver.degraded
  in
  let rec blocks_of = function
    | [] -> []
    | (file, _) :: _ as rows ->
        let mine, rest =
          List.partition (fun (f, _) -> String.equal f file) rows
        in
        (file, List.map snd mine) :: blocks_of rest
  in
  List.iter
    (fun (fail_policy, action) ->
      with_faults "permanent:1.0,only:pool.task" (fun () ->
          let batch =
            or_fail (Exec.Driver.run_parallel ~jobs:2 ~fail_policy corpus q)
          in
          let blocks = ref [] in
          let streamed =
            or_fail
              (Exec.Pool.with_pool ~jobs:2 (fun pool ->
                   Exec.Driver.run_streaming ~fail_policy ~pool
                     ~on_rows:(fun ~file rows ->
                       blocks := (file, rows) :: !blocks)
                     corpus q))
          in
          let policy = Exec.Driver.fail_policy_to_string fail_policy in
          Alcotest.check rows_t (policy ^ ": rows") batch.Exec.Driver.rows
            streamed.Exec.Driver.rows;
          Alcotest.(check bool)
            (policy ^ ": blocks are the rows grouped by file")
            true
            (List.rev !blocks = blocks_of batch.Exec.Driver.rows);
          Alcotest.(check (list (triple string string string)))
            (policy ^ ": per-file actions")
            (per_file_actions batch) (per_file_actions streamed);
          Alcotest.(check (list string))
            (policy ^ ": every file took the expected action")
            (List.map
               (fun _ -> Oqf.Degrade.action_to_string action)
               (Oqf.Corpus.files corpus))
            (List.map (fun (_, a, _) -> a) (per_file_actions streamed));
          if fail_policy = Exec.Driver.Degrade then
            Alcotest.(check bool) "naive fallbacks answer rows" true
              (streamed.Exec.Driver.rows <> [])))
    [
      (Exec.Driver.Degrade, Oqf.Degrade.Naive_fallback);
      (Exec.Driver.Partial, Oqf.Degrade.Excluded);
    ]

let degrade_aborts_query_defects () =
  (* a query-level defect — an unknown class, or a plan that static
     analysis refuses (OQF001: Ts has no Entry inside it) — fails the
     query with fail-fast's message under every policy and on every
     door, before any file is parsed: degrading it away would silently
     return nothing, or naive-scan every file for it *)
  let corpus = log_corpus [ 4; 3; 5 ] in
  let refused = {|SELECT b.Ts FROM Entries b WHERE b.Ts.Entry = "x"|} in
  let doors =
    [
      ( "run_parallel",
        fun ~fail_policy q ->
          Exec.Driver.run_parallel ~jobs:2 ~fail_policy corpus q );
      ( "run_streaming",
        fun ~fail_policy q ->
          Exec.Pool.with_pool ~jobs:2 @@ fun pool ->
          Exec.Driver.run_streaming ~fail_policy ~pool
            ~on_rows:(fun ~file:_ _ -> ())
            corpus q );
    ]
  in
  List.iter
    (fun (text, affix) ->
      let q = Odb.Query_parser.parse_exn text in
      let expected =
        match Exec.Driver.run_parallel ~jobs:1 corpus q with
        | Ok _ -> Alcotest.failf "%s: expected a query-level failure" text
        | Error e -> e
      in
      Alcotest.(check bool)
        (text ^ ": names the first file and the defect")
        true
        (String.starts_with ~prefix:"node0.log: " expected
        && Astring.String.is_infix ~affix expected);
      List.iter
        (fun (door, run) ->
          List.iter
            (fun fail_policy ->
              let label =
                Printf.sprintf "%s %s %s" door
                  (Exec.Driver.fail_policy_to_string fail_policy)
                  text
              in
              let parsed = Stdx.Stats.(value bytes_parsed) in
              (match run ~fail_policy q with
              | Ok _ -> Alcotest.failf "%s: expected the query to fail" label
              | Error e -> Alcotest.(check string) label expected e);
              Alcotest.(check int)
                (label ^ ": no file parsed")
                0
                (Stdx.Stats.(value bytes_parsed) - parsed))
            Exec.Driver.[ Fail_fast; Partial; Degrade ])
        doors)
    [ ({|SELECT x FROM Nope x|}, "unknown class: Nope"); (refused, "OQF001") ];
  (* forcing the refused query still executes it: no rows, no
     degradation *)
  let out =
    or_fail
      (Exec.Driver.run_parallel ~jobs:2 ~force:true
         ~fail_policy:Exec.Driver.Degrade corpus
         (Odb.Query_parser.parse_exn refused))
  in
  Alcotest.(check int) "forced: no rows" 0 (List.length out.Exec.Driver.rows);
  Alcotest.(check int) "forced: every file ran" 3
    (List.length out.Exec.Driver.per_file);
  Alcotest.(check int) "forced: nothing degraded" 0
    (List.length out.Exec.Driver.degraded)

let transient_faults_are_invisible () =
  (* a recoverable schedule (burst < retry budget) is fully masked by
     the retry layer: same rows, no degradation, even under fail-fast *)
  let corpus = log_corpus [ 8; 5; 3 ] in
  let q = Odb.Query_parser.parse_exn error_query in
  let reference = or_fail (Oqf.Corpus.run corpus q) in
  with_faults "transient:0.4,burst:2,seed:11" (fun () ->
      let out = or_fail (Exec.Driver.run_parallel ~jobs:3 corpus q) in
      Alcotest.check rows_t "rows identical" reference.Oqf.Corpus.rows
        out.Exec.Driver.rows;
      Alcotest.(check (list string))
        "nothing degraded" []
        (List.map (fun d -> d.Oqf.Degrade.file) out.Exec.Driver.degraded))

(* Disk-backed equivalence: build a catalog on disk, corrupt an index,
   arm a recoverable fault schedule, and check a Degrade run still
   returns the fault-free sequential rows at any jobs count. *)

let temp_dir () =
  let path = Filename.temp_file "oqf_exec_fault" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let degrade_equals_fault_free_qcheck =
  QCheck.Test.make ~count:12
    ~name:"degrade under recoverable faults == fault-free run (disk catalog)"
    QCheck.(
      quad
        (int_range 1 3)  (* number of files *)
        (int_range 3 10)  (* entries per file *)
        (int_range 1 8)  (* jobs *)
        (int_range 0 999) (* fault schedule seed *))
    (fun (n_files, size, jobs, seed) ->
      (* clamp against shrinker excursions outside the range *)
      let n_files = max 1 (min 3 n_files) in
      let size = max 3 (min 10 size) in
      let jobs = max 1 (min 8 jobs) in
      let dir = temp_dir () in
      let cat =
        match Oqf_catalog.Catalog.init (Filename.concat dir "cat") with
        | Ok cat -> cat
        | Error e -> QCheck.Test.fail_reportf "init failed: %s" e
      in
      for i = 0 to n_files - 1 do
        let path = Filename.concat dir (Printf.sprintf "n%d.log" i) in
        write_file path
          (Workload.Log_gen.generate
             { (Workload.Log_gen.with_size (size + (i * 2))) with
               seed = 3000 + i
             });
        match Oqf_catalog.Catalog.add cat ~schema:"log" path with
        | Ok _ -> ()
        | Error e -> QCheck.Test.fail_reportf "add failed: %s" e
      done;
      let q = Odb.Query_parser.parse_exn error_query in
      let run_rows corpus fail_policy =
        match Exec.Driver.run_parallel ~jobs:1 ~fail_policy corpus q with
        | Ok out -> out.Exec.Driver.rows
        | Error e -> QCheck.Test.fail_reportf "reference run failed: %s" e
      in
      let reference =
        match Oqf.Corpus.of_catalog cat ~schema:"log" with
        | Ok corpus -> run_rows corpus Exec.Driver.Fail_fast
        | Error e -> QCheck.Test.fail_reportf "of_catalog failed: %s" e
      in
      (* damage the first index on disk, then run from a fresh open
         under a recoverable schedule *)
      (match Oqf_catalog.Catalog.entries cat with
      | e :: _ ->
          let idx =
            Filename.concat (Oqf_catalog.Catalog.dir cat)
              e.Oqf_catalog.Catalog.index_file
          in
          let ic = open_in_bin idx in
          let raw = really_input_string ic (in_channel_length ic) in
          close_in ic;
          write_file idx (String.sub raw 0 (String.length raw * 2 / 3))
      | [] -> QCheck.Test.fail_reportf "catalog unexpectedly empty");
      let spec = Printf.sprintf "transient:0.2,burst:2,seed:%d" seed in
      let config =
        match Stdx.Fault.parse spec with
        | Ok c -> c
        | Error e -> QCheck.Test.fail_reportf "spec rejected: %s" e
      in
      Stdx.Fault.set (Some config);
      Stdx.Retry.Breaker.reset_all ();
      Fun.protect
        ~finally:(fun () ->
          Stdx.Fault.set None;
          Stdx.Retry.Breaker.reset_all ())
        (fun () ->
          let cat2 =
            match
              Oqf_catalog.Catalog.open_dir (Filename.concat dir "cat")
            with
            | Ok cat -> cat
            | Error e -> QCheck.Test.fail_reportf "reopen failed: %s" e
          in
          let corpus, lost =
            match Oqf.Corpus.of_catalog_robust cat2 ~schema:"log" with
            | Ok r -> r
            | Error e ->
                QCheck.Test.fail_reportf "robust corpus failed: %s" e
          in
          if lost <> [] then
            QCheck.Test.fail_reportf
              "the corrupt index must heal, not exclude (seed=%d)" seed;
          let out =
            match
              Exec.Driver.run_parallel ~jobs
                ~fail_policy:Exec.Driver.Degrade corpus q
            with
            | Ok out -> out
            | Error e ->
                QCheck.Test.fail_reportf "degrade run failed: %s" e
          in
          if
            not
              (List.equal
                 (fun (f1, r1) (f2, r2) ->
                   String.equal f1 f2 && List.equal Odb.Value.equal r1 r2)
                 reference out.Exec.Driver.rows)
          then
            QCheck.Test.fail_reportf
              "rows differ (files=%d size=%d jobs=%d seed=%d)" n_files size
              jobs seed;
          true))

let suites =
  [
    ( "exec.pool",
      [
        Alcotest.test_case "results in order" `Quick pool_runs_tasks_in_order;
        Alcotest.test_case "graceful shutdown drains in-flight tasks" `Quick
          pool_graceful_shutdown_with_in_flight_tasks;
        Alcotest.test_case "task exception captured" `Quick
          pool_task_exception_is_captured;
        Alcotest.test_case "task deadline expires" `Quick
          pool_task_deadline_expires;
        Alcotest.test_case "deadline interrupts the eval loop" `Quick
          pool_deadline_interrupts_eval;
      ] );
    ( "exec.parallel",
      [
        QCheck_alcotest.to_alcotest parallel_equals_sequential_qcheck;
        Alcotest.test_case "battery at jobs 1..8 and OQF_JOBS default" `Quick
          parallel_battery;
        Alcotest.test_case "per-file outcomes cover the corpus" `Quick
          parallel_per_file_covers_corpus;
        Alcotest.test_case "jobs < 1 rejected" `Quick parallel_rejects_bad_jobs;
        Alcotest.test_case "deterministic error propagation" `Quick
          parallel_propagates_deterministic_error;
        Alcotest.test_case "empty corpus: Ok, no rows, on every door"
          `Quick empty_corpus_answers_nothing;
      ] );
    ( "exec.rcache",
      [
        Alcotest.test_case "hit + query normalization" `Quick
          rcache_hit_and_normalization;
        Alcotest.test_case "parallel runs populate the cache" `Quick
          rcache_parallel_populates_too;
        Alcotest.test_case "LRU eviction" `Quick rcache_lru_eviction;
        Alcotest.test_case "capacity 1: every insert evicts" `Quick
          rcache_capacity_one;
        Alcotest.test_case "duplicate-key reinsertion refreshes recency"
          `Quick rcache_reinsert_refreshes_lru;
        Alcotest.test_case "fingerprint change partitions every key" `Quick
          rcache_fingerprint_partitions_keys;
        Alcotest.test_case "invalidated by catalog refresh" `Quick
          rcache_invalidated_by_catalog_refresh;
        Alcotest.test_case "subsumption residual detection" `Quick
          subsume_residual_detection;
        Alcotest.test_case "containment serves a subset byte-identically"
          `Quick rcache_containment_serves_subset;
        Alcotest.test_case "containment layer can be disabled" `Quick
          rcache_containment_disabled;
        Alcotest.test_case "containment evaluates >= 20% fewer of a batch"
          `Quick containment_evaluates_fewer;
        Alcotest.test_case "corpus fingerprint equals the formula" `Quick
          fingerprint_matches_the_formula;
        Alcotest.test_case "corpus fingerprint is domain-safe" `Quick
          fingerprint_is_domain_safe;
      ] );
    ( "exec.batch",
      [
        Alcotest.test_case "batch order and cache reuse" `Quick
          batch_runs_all_queries;
        Alcotest.test_case "workload-labelled histograms" `Quick
          workload_labelled_histograms;
        Alcotest.test_case "one qlog record per driven query" `Quick
          qlog_one_record_per_query;
      ] );
    ( "exec.robustness",
      [
        Alcotest.test_case "worker survives raising tasks" `Quick
          pool_worker_survives_raising_tasks;
        Alcotest.test_case "degrade falls back to naive scan" `Quick
          degrade_falls_back_to_naive;
        Alcotest.test_case "degrade fallback obeys the file timeout" `Quick
          degrade_fallback_obeys_timeout;
        Alcotest.test_case "partial excludes failed files" `Quick
          partial_excludes_failed_files;
        Alcotest.test_case "fail-fast still fails" `Quick fail_fast_still_fails;
        Alcotest.test_case "fail-fast cancels the unstarted files" `Quick
          fail_fast_cancels_the_rest;
        Alcotest.test_case "streaming ladder == run_parallel's" `Quick
          streaming_ladder_matches_parallel;
        Alcotest.test_case "query defects abort under degrade" `Quick
          degrade_aborts_query_defects;
        Alcotest.test_case "recoverable faults are invisible" `Quick
          transient_faults_are_invisible;
        QCheck_alcotest.to_alcotest degrade_equals_fault_free_qcheck;
      ] );
  ]
