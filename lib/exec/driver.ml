type shard_report = {
  shard : int;
  files : string list;
  weight_bytes : int;
  elapsed_ms : float;
}

type fail_policy = Fail_fast | Partial | Degrade

let fail_policy_of_string = function
  | "fail-fast" -> Ok Fail_fast
  | "partial" -> Ok Partial
  | "degrade" -> Ok Degrade
  | s ->
      Error
        (Printf.sprintf
           "unknown fail policy %S (expected fail-fast, partial or degrade)" s)

let fail_policy_to_string = function
  | Fail_fast -> "fail-fast"
  | Partial -> "partial"
  | Degrade -> "degrade"

type outcome = {
  rows : (string * Odb.Query_eval.row) list;
  per_file : (string * Oqf.Execute.outcome) list;
  per_shard : shard_report list;
  stats : Stdx.Stats.t;
  from_cache : bool;
  cache_superset : string option;
  degraded : Oqf.Degrade.t list;
}

let shard_quarantined = Obs.Metrics.counter "shard.quarantined"

let default_jobs () =
  match Sys.getenv_opt "OQF_JOBS" with
  | Some s -> begin
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1
    end
  | None -> 1

(* --- query-log integration ---------------------------------------- *)

let counter_value name =
  match Obs.Metrics.find_counter name with
  | Some c -> Obs.Metrics.value c
  | None -> 0

let schema_of_corpus corpus =
  match Oqf.Corpus.sources corpus with
  | (_, src) :: _ ->
      Option.value
        (Oqf_catalog.Schemas.name_of_view src.Oqf.Execute.view)
        ~default:""
  | [] -> ""

(* Whole-query latency under the workload label, interned per
   workload.  Execute.run's query.latency_ms{workload} is per *file*;
   this histogram is per driven query — the series `oqf stats` over a
   qlog of the same traffic reproduces. *)
let exec_query_ms =
  let table : (string, Obs.Metrics.histogram) Hashtbl.t = Hashtbl.create 8 in
  let lock = Mutex.create () in
  fun workload ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match Hashtbl.find_opt table workload with
        | Some h -> h
        | None ->
            let h =
              Obs.Metrics.histogram
                (Obs.Label.render "exec.query_ms" [ ("workload", workload) ])
            in
            Hashtbl.replace table workload h;
            h)

(* One qlog record per driven query (the per-file Execute.run calls
   underneath deliberately get no qctx, so they stay silent).  The
   retry/fault figures are process-global counter deltas around the
   run — exact when requests are sequential, attribution-approximate
   under concurrency, which is fine for trend aggregation. *)
let with_qlog ?qctx ?generation ~kind corpus q run =
  match (qctx, Obs.Qlog.installed ()) with
  | Some (ctx : Obs.Qlog.ctx), Some log ->
      let t0 = Obs.Trace.now_ms () in
      let retries0 = counter_value "retry.attempts" in
      let faults0 = counter_value "fault.injected" in
      let result = run () in
      let latency_ms = Obs.Trace.now_ms () -. t0 in
      let schema = schema_of_corpus corpus in
      let retries = counter_value "retry.attempts" - retries0 in
      let faults = counter_value "fault.injected" - faults0 in
      let record ~rows ~cached ~shards ~outcome ?error ~events () =
        Obs.Qlog.append log
          (Obs.Qlog.make ~ctx ~workload_default:schema ~schema ~kind
             ~query:(Odb.Query.to_string q) ~latency_ms ~rows ~cached ~shards
             ~outcome ?error ~events ~retries ~faults ?generation ())
      in
      (match result with
      | Ok (o : outcome) ->
          record ~rows:(List.length o.rows) ~cached:o.from_cache
            ~shards:(List.length o.per_shard)
            ~outcome:(if o.degraded = [] then "ok" else "degraded")
            ~events:
              ((match o.cache_superset with
               | Some superset -> [ ("rcache.containment", superset) ]
               | None -> [])
              @ List.map
                  (fun (d : Oqf.Degrade.t) ->
                    (Oqf.Degrade.action_to_string d.Oqf.Degrade.action,
                     d.Oqf.Degrade.file))
                  o.degraded)
            ()
      | Error e ->
          record ~rows:0 ~cached:false ~shards:0 ~outcome:"error" ~error:e
            ~events:[] ());
      let workload = if ctx.workload <> "" then ctx.workload else schema in
      if workload <> "" then
        Obs.Metrics.observe (exec_query_ms workload) latency_ms;
      result
  | _ -> run ()

let cached_outcome ?superset payload =
  {
    rows = payload;
    per_file = [];
    per_shard = [];
    stats = Stdx.Stats.create ();
    from_cache = true;
    cache_superset = superset;
    degraded = [];
  }

(* The one cache protocol of every driver path: exact hit, then
   containment hit, then run and populate on success.  [replay] sees
   the payload of either kind of hit (the streaming path re-emits it
   as per-file blocks).  A degraded outcome is never cached — its rows
   may not reflect what the indices will serve once the fault
   clears. *)
let with_cache ~replay cache corpus q run =
  match cache with
  | None -> run ()
  | Some cache -> begin
      let key = Rcache.key ~query:q ~fingerprint:(Rcache.fingerprint corpus) in
      match Rcache.find cache key with
      | Some payload ->
          replay payload;
          Ok (cached_outcome payload)
      | None -> begin
          match Rcache.find_contained cache key with
          | Some (payload, superset) ->
              (* a resident superset answered by filtering; populate the
                 exact key so the next occurrence hits directly *)
              Rcache.add cache key payload;
              replay payload;
              Ok (cached_outcome ~superset payload)
          | None -> begin
              match run () with
              | Error _ as e -> e
              | Ok outcome ->
                  if outcome.degraded = [] then
                    Rcache.add cache key outcome.rows;
                  Ok outcome
            end
        end
    end

let no_rows ~file:_ _ = ()

exception Abort of string

(* Settle corpus-ordered files one at a time, forcing each file's
   result only when its turn comes — so a sequential run stops
   evaluating at the first fail-fast error, and a streaming run awaits
   its tasks in order.  [Fail_fast] aborts the query on the first
   failure; [Partial] excludes failed files; [Degrade] walks the
   recovery ladder per failed file: circuit breaker → query-level
   error check → naive scan of the raw file → exclusion.  [on_rows]
   receives each file's non-empty answer rows, indexed or naive, as
   soon as that file settles.  Returns the merged rows, the indexed
   per-file outcomes, and the degradation report. *)
let resolve ~fail_policy ~on_rows q files =
  let rows = ref [] in
  let per_file = ref [] in
  let degraded = ref [] in
  let emit name file_rows =
    if file_rows <> [] then begin
      rows :=
        List.rev_append (List.map (fun r -> (name, r)) file_rows) !rows;
      on_rows ~file:name file_rows
    end
  in
  let note d = degraded := d :: !degraded in
  let settle (name, (src : Oqf.Execute.source), result) =
    let breaker_key = "source:" ^ name in
    let exclude detail =
      Obs.Metrics.incr shard_quarantined;
      note (Oqf.Degrade.make ~file:name Oqf.Degrade.Excluded detail)
    in
    match result () with
    | Ok (o : Oqf.Execute.outcome) ->
        Stdx.Retry.Breaker.success breaker_key;
        emit name o.Oqf.Execute.rows;
        per_file := (name, o) :: !per_file
    | Error e -> begin
        match fail_policy with
        | Fail_fast -> raise (Abort (Printf.sprintf "%s: %s" name e))
        | Partial -> exclude e
        | Degrade ->
            if Stdx.Retry.Breaker.state breaker_key = Stdx.Retry.Breaker.Open
            then exclude ("circuit open; " ^ e)
            else begin
              match Oqf.Execute.semantic_error src.Oqf.Execute.view q with
              | Some se ->
                  (* the query itself is broken: every file fails the
                     same way, degrading would silently return nothing *)
                  raise (Abort (Printf.sprintf "%s: %s" name se))
              | None -> begin
                  match Oqf.Execute.run_naive ~file:name src q with
                  | Ok nrows ->
                      Stdx.Retry.Breaker.success breaker_key;
                      emit name nrows;
                      note
                        (Oqf.Degrade.make ~file:name
                           Oqf.Degrade.Naive_fallback e)
                  | Error ne ->
                      Stdx.Retry.Breaker.failure breaker_key;
                      exclude (e ^ "; " ^ ne)
                end
            end
      end
  in
  match List.iter settle files with
  | () -> Ok (List.rev !rows, List.rev !per_file, List.rev !degraded)
  | exception Abort e -> Error e

let fresh_outcome ~stats ~per_shard (rows, per_file, degraded) =
  {
    rows;
    per_file;
    per_shard;
    stats;
    from_cache = false;
    cache_superset = None;
    degraded;
  }

let run_one ?optimize ?minimize ?force ?plan_mode ?cache
    ?(fail_policy = Fail_fast) ?qctx ?generation corpus q =
  with_qlog ?qctx ?generation ~kind:"query" corpus q @@ fun () ->
  with_cache ~replay:ignore cache corpus q @@ fun () ->
  let before = Stdx.Stats.snapshot () in
  let files =
    List.map
      (fun (name, src) ->
        ( name,
          src,
          fun () -> Oqf.Execute.run ?optimize ?minimize ?force ?plan_mode src q
        ))
      (Oqf.Corpus.sources corpus)
  in
  resolve ~fail_policy ~on_rows:no_rows q files
  |> Result.map (fun settled ->
         let stats = Stdx.Stats.diff ~before ~after:(Stdx.Stats.snapshot ()) in
         fresh_outcome ~stats ~per_shard:[] settled)

(* Evaluate one shard: its files in order.  Under [stop_at_first]
   (fail-fast) evaluation stops at the first failing file, mirroring
   the sequential executor; otherwise every file gets its own result
   so the policies can recover per file.  The [pool.task] fault site
   fires here, inside the retryable task body. *)
let eval_shard ?optimize ?minimize ?force ?plan_mode ~stop_at_first q
    (shard : (string * Oqf.Execute.source) Shard.t) =
  Stdx.Fault.hit "pool.task";
  let t0 = Obs.Trace.now_ms () in
  let rec go acc = function
    | [] -> List.rev acc
    | (name, src) :: rest -> begin
        match Oqf.Execute.run ?optimize ?minimize ?force ?plan_mode src q with
        | Error e ->
            let acc = (name, Error e) :: acc in
            if stop_at_first then List.rev acc else go acc rest
        | Ok r -> go ((name, Ok r) :: acc) rest
      end
  in
  let result =
    if Obs.Trace.enabled () then
      Obs.Trace.with_span "exec.shard"
        ~attrs:(fun () ->
          [
            ("shard", Obs.Trace.Int shard.Shard.id);
            ("files", Obs.Trace.Int (List.length shard.Shard.items));
            ("weight_bytes", Obs.Trace.Int shard.Shard.weight);
          ])
        (fun () -> go [] shard.Shard.items)
    else go [] shard.Shard.items
  in
  let report =
    {
      shard = shard.Shard.id;
      files = List.map fst shard.Shard.items;
      weight_bytes = shard.Shard.weight;
      elapsed_ms = Obs.Trace.now_ms () -. t0;
    }
  in
  (report, result)

let run_parallel ?optimize ?minimize ?force ?plan_mode ?jobs ?cache
    ?timeout_ms ?(fail_policy = Fail_fast) ?qctx ?generation corpus q =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then
    Error (Printf.sprintf "jobs must be at least 1 (got %d)" jobs)
  else
    with_qlog ?qctx ?generation ~kind:"query" corpus q @@ fun () ->
    with_cache ~replay:ignore cache corpus q @@ fun () ->
    let sources = Oqf.Corpus.sources corpus in
    let position =
      let tbl = Hashtbl.create (List.length sources) in
      List.iteri (fun i (name, _) -> Hashtbl.replace tbl name i) sources;
      fun name -> try Hashtbl.find tbl name with Not_found -> max_int
    in
    let stop_at_first = fail_policy = Fail_fast in
    let eval s =
      eval_shard ?optimize ?minimize ?force ?plan_mode ~stop_at_first q s
    in
    let shards = Shard.of_corpus ~shards:jobs corpus in
    let before = Stdx.Stats.snapshot () in
    let shard_results =
      match shards with
      | [] -> []
      | _ ->
          Pool.with_pool ~jobs:(min jobs (List.length shards)) @@ fun pool ->
          Pool.run_all ?timeout_ms pool
            (List.map
               (fun s () -> Stdx.Retry.io ~site:"pool.task" (fun () -> eval s))
               shards)
    in
    (* A task-level failure (timeout, worker death, injected fault that
       outlived its retry budget) has no file attribution.  Fail-fast
       surfaces it against its shard; the recovering policies re-run
       the shard once on the coordinator and only then push the
       failure down to its files. *)
    let task_errors = ref [] in
    let degraded_shards = ref [] in
    let shard_outcomes =
      List.filter_map
        (fun (shard, res) ->
          match res with
          | Ok (report, per_shard_result) -> Some (report, per_shard_result)
          | Error msg when fail_policy = Fail_fast ->
              task_errors :=
                Printf.sprintf "shard %d: %s" shard.Shard.id msg
                :: !task_errors;
              None
          | Error msg -> begin
              degraded_shards :=
                Oqf.Degrade.make
                  ~file:(Printf.sprintf "shard %d" shard.Shard.id)
                  Oqf.Degrade.Shard_retried msg
                :: !degraded_shards;
              match
                Stdx.Retry.io ~site:"pool.task" (fun () -> eval shard)
              with
              | outcome -> Some outcome
              | exception e ->
                  (* even the direct re-run failed: fail each file and
                     let the per-file ladder take over *)
                  let err = Printexc.to_string e in
                  Some
                    ( {
                        shard = shard.Shard.id;
                        files = List.map fst shard.Shard.items;
                        weight_bytes = shard.Shard.weight;
                        elapsed_ms = 0.;
                      },
                      List.map
                        (fun (name, _) -> (name, Error err))
                        shard.Shard.items )
            end)
        (List.combine shards shard_results)
    in
    let after = Stdx.Stats.snapshot () in
    match List.rev !task_errors with
    | e :: _ -> Error e
    | [] -> begin
        let by_position field =
          List.sort (fun (a, _) (b, _) -> compare (position a) (position b))
            field
        in
        let files =
          List.concat_map (fun (_, r) -> r) shard_outcomes
          |> by_position
          |> List.map (fun (name, result) ->
                 let src =
                   match List.assoc_opt name sources with
                   | Some src -> src
                   | None -> assert false  (* shards partition the corpus *)
                 in
                 (name, src, fun () -> result))
        in
        let per_shard =
          List.sort
            (fun a b -> compare a.shard b.shard)
            (List.map fst shard_outcomes)
        in
        resolve ~fail_policy ~on_rows:no_rows q files
        |> Result.map (fun (rows, per_file, degraded) ->
               fresh_outcome
                 ~stats:(Stdx.Stats.diff ~before ~after)
                 ~per_shard
                 (rows, per_file, List.rev !degraded_shards @ degraded))
      end

(* --- streaming execution: the serve daemon's per-client path ------- *)

(* Cached payloads are (file, row) pairs in corpus order; re-group the
   consecutive runs so a cache hit still streams per-file blocks. *)
let rec emit_blocks on_rows = function
  | [] -> ()
  | (file, row) :: rest ->
      let rec take acc = function
        | (f, r) :: tl when String.equal f file -> take (r :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let file_rows, rest = take [ row ] rest in
      on_rows ~file file_rows;
      emit_blocks on_rows rest

let run_streaming ?optimize ?minimize ?force ?plan_mode ?cache ?timeout_ms
    ?(fail_policy = Fail_fast) ?qctx ?generation ~pool ~on_rows corpus q =
  with_qlog ?qctx ?generation ~kind:"query" corpus q @@ fun () ->
  with_cache ~replay:(emit_blocks on_rows) cache corpus q @@ fun () ->
  let before = Stdx.Stats.snapshot () in
  (* one task per file — finer than the shard-per-worker batch path on
     purpose: file k's rows go to the client as soon as its own task
     resolves, while later files are still scanning on other workers.
     The shared pool's FIFO queue is what arbitrates between
     concurrent clients. *)
  let files =
    List.map
      (fun (name, src) ->
        let task () =
          Stdx.Retry.io ~site:"pool.task" (fun () ->
              Stdx.Fault.hit "pool.task";
              Oqf.Execute.run ?optimize ?minimize ?force ?plan_mode src q)
        in
        let h = Pool.submit ?timeout_ms pool task in
        (* a task death or deadline expiry fails the file like an
           evaluation error *)
        (name, src, fun () -> Result.join (Pool.await h)))
      (Oqf.Corpus.sources corpus)
  in
  resolve ~fail_policy ~on_rows q files
  |> Result.map (fun settled ->
         let stats = Stdx.Stats.diff ~before ~after:(Stdx.Stats.snapshot ()) in
         fresh_outcome ~stats ~per_shard:[] settled)

let run_batch ?optimize ?minimize ?force ?plan_mode ?jobs ?cache ?fail_policy
    ?(workload = "") corpus queries =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then
    List.map
      (fun q -> (q, Error (Printf.sprintf "jobs must be at least 1 (got %d)" jobs)))
      queries
  else
    Pool.with_pool ~jobs @@ fun pool ->
    (* A duplicate of an in-flight query waits for the first occurrence
       before probing the cache, so intra-batch duplicates hit
       deterministically instead of racing the original's insert.  The
       wait cannot deadlock: the queue is FIFO, so the first occurrence
       is dequeued (and its handle eventually completed) strictly
       before any task that waits on it starts. *)
    let fingerprint = lazy (Rcache.fingerprint corpus) in
    let seen = Hashtbl.create 8 in
    let handles =
      List.map
        (fun q ->
          let key =
            match cache with
            | None -> None
            | Some _ ->
                Some (Rcache.key ~query:q ~fingerprint:(Lazy.force fingerprint))
          in
          let first = Option.bind key (Hashtbl.find_opt seen) in
          let h =
            Pool.submit pool (fun () ->
                Option.iter (fun first -> ignore (Pool.await first)) first;
                let qctx =
                  (* one trace id per batched query, minted at task start *)
                  match Obs.Qlog.installed () with
                  | Some _ ->
                      Some
                        {
                          Obs.Qlog.trace_id = Obs.Qlog.gen_trace_id ();
                          workload;
                        }
                  | None -> None
                in
                run_one ?optimize ?minimize ?force ?plan_mode ?cache
                  ?fail_policy ?qctx corpus q)
          in
          (match (key, first) with
          | Some k, None -> Hashtbl.replace seen k h
          | _ -> ());
          (q, h))
        queries
    in
    List.map
      (fun (q, h) ->
        (* a task that died fails its query *)
        (q, Result.join (Pool.await h)))
      handles

let pp_shard_report ppf r =
  Format.fprintf ppf "shard %d: %d files, %d KB, %.2f ms" r.shard
    (List.length r.files) (r.weight_bytes / 1024) r.elapsed_ms
