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
  stats : Stdx.Stats.t;
  from_cache : bool;
  cache_superset : string option;
  degraded : Oqf.Degrade.t list;
}

let files_excluded = Obs.Metrics.counter "exec.files_excluded"

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
   workload.  Execute.exec's query.latency_ms{workload} is per *file*;
   this histogram is per driven query — the series `oqf stats` over a
   qlog of the same traffic reproduces. *)
let exec_query_ms =
  let table : (string, Obs.Metrics.histogram) Hashtbl.t = Hashtbl.create 8 in
  let lock = Mutex.create () in
  fun workload ->
    Mutex.protect lock @@ fun () ->
    match Hashtbl.find_opt table workload with
    | Some h -> h
    | None ->
        let h =
          Obs.Metrics.histogram
            (Obs.Label.render "exec.query_ms" [ ("workload", workload) ])
        in
        Hashtbl.replace table workload h;
        h

(* One qlog record per driven query (the per-file Execute.exec calls
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
      let record ~rows ~cached ~outcome ?error ?candidates ?est_cost ~events
          () =
        Obs.Qlog.append log
          (Obs.Qlog.make ~ctx ~workload_default:schema ~schema ~kind
             ~query:(Odb.Query.to_string q) ~latency_ms ~rows ~cached ~outcome
             ?error ?candidates ?est_cost ~events ~retries ~faults ?generation
             ())
      in
      (match result with
      | Ok (o : outcome) ->
          let per_file = List.map snd o.per_file in
          record ~rows:(List.length o.rows) ~cached:o.from_cache
            ~outcome:(if o.degraded = [] then "ok" else "degraded")
            ~candidates:
              (List.fold_left
                 (fun acc (r : Oqf.Execute.outcome) -> acc + r.candidates_count)
                 0 per_file)
            ~est_cost:
              (List.fold_left
                 (fun acc (r : Oqf.Execute.outcome) -> acc +. r.est_cost)
                 0. per_file)
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
          record ~rows:0 ~cached:false ~outcome:"error" ~error:e ~events:[]
            ());
      let workload = if ctx.workload <> "" then ctx.workload else schema in
      if workload <> "" then
        Obs.Metrics.observe (exec_query_ms workload) latency_ms;
      result
  | _ -> run ()

let cached_outcome ?superset payload =
  {
    rows = payload;
    per_file = [];
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

exception Abort of string

(* Settle corpus-ordered files one at a time, forcing each file's
   result only when its turn comes — so a run on the caller stops
   evaluating at the first fail-fast error, and a pooled run awaits its
   tasks in order.  [Fail_fast] aborts the query on the first failure;
   [Partial] excludes failed files; [Degrade] walks the recovery
   ladder per failed file: circuit breaker → naive scan of the raw
   file, under the per-file [timeout_ms] → exclusion.  [on_rows]
   receives each file's non-empty answer rows, indexed or naive, as
   soon as that file settles.  Returns the merged rows, the indexed
   per-file outcomes, and the degradation report. *)
let resolve ?timeout_ms ~fail_policy ~on_rows q files =
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
      Obs.Metrics.incr files_excluded;
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
              match
                Result.join
                  (Pool.capture ?timeout_ms (fun () ->
                       Oqf.Execute.run_naive ~file:name src q))
              with
              | Ok nrows ->
                  Stdx.Retry.Breaker.success breaker_key;
                  emit name nrows;
                  note
                    (Oqf.Degrade.make ~file:name Oqf.Degrade.Naive_fallback e)
              | Error ne ->
                  Stdx.Retry.Breaker.failure breaker_key;
                  exclude (e ^ "; " ^ ne)
            end
      end
  in
  match List.iter settle files with
  | () -> Ok (List.rev !rows, List.rev !per_file, List.rev !degraded)
  | exception Abort e -> Error e

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

(* --- the per-file engine ------------------------------------------- *)

(* Where each file's evaluation runs.  [Shared pool]: one task per file
   on the caller's long-lived pool.  [Private jobs]: the same, on a
   pool of [min jobs files] workers spawned for this query only —
   except that one worker would only hand each file back in turn, so
   a one-worker lane runs each file's task on the caller when
   [resolve] reaches it, and spawns nothing. *)
type lanes = Shared of Pool.t | Private of int

type lane = Caller | Pooled of Pool.t

let with_lanes lanes ~files k =
  match lanes with
  | Shared pool -> k (Pooled pool)
  | Private jobs when min jobs files <= 1 -> k Caller
  | Private jobs ->
      Pool.with_pool ~jobs:(min jobs files) (fun p -> k (Pooled p))

(* Prepare once per distinct index set (a catalog has one), on the
   set's first file.  A failed preparation would fail every file of the
   set alike, so it fails the query under every policy, naming that
   file. *)
let prepare_files ?optimize ?force ?plan_mode sources q =
  let rec go prepared acc = function
    | [] -> Ok (List.rev acc)
    | (name, (src : Oqf.Execute.source)) :: rest -> (
        let index = src.env.Oqf.Compile.index_names in
        match List.assoc_opt index prepared with
        | Some p -> go prepared ((name, src, p) :: acc) rest
        | None -> (
            match Oqf.Execute.prepare ?optimize ?force ?plan_mode src q with
            | Error e -> Error (Printf.sprintf "%s: %s" name e)
            | Ok p -> go ((index, p) :: prepared) ((name, src, p) :: acc) rest))
  in
  go [] [] sources

(* The one query engine behind both entry points: the qlog record
   around the cache protocol around one preparation and the per-file
   ladder.  Regions of distinct files never overlap, so a corpus query
   is one independent execution of the prepared query per file, merged
   by concatenation in corpus order.  On a pool every file is
   submitted up front, so file k settles (and streams) while later
   files are still scanning; a task death, deadline expiry or spent
   [pool.task] retry budget fails its file like an evaluation error.
   Once [resolve] is done with the query — answered, aborted, or cut
   short by an exception from [on_rows] — the tasks that have not
   started yet skip their files. *)
let run_files ?optimize ?explain ?force ?plan_mode ?cache ?timeout_ms
    ?(fail_policy = Fail_fast) ?qctx ?generation ?on_rows ~lanes corpus q =
  let replay, on_rows =
    match on_rows with
    | Some f -> (emit_blocks f, f)
    | None -> (ignore, fun ~file:_ _ -> ())
  in
  with_qlog ?qctx ?generation ~kind:"query" corpus q @@ fun () ->
  with_cache ~replay cache corpus q @@ fun () ->
  let before = Stdx.Stats.snapshot () in
  let sources = Oqf.Corpus.sources corpus in
  Result.bind (prepare_files ?optimize ?force ?plan_mode sources q)
  @@ fun sources ->
  with_lanes lanes ~files:(List.length sources) (fun lane ->
      let cancelled = Atomic.make false in
      let task run () =
        Stdx.Retry.io ~site:"pool.task" (fun () ->
            Stdx.Fault.hit "pool.task";
            run ())
      in
      let files =
        List.map
          (fun (name, src, prepared) ->
            let run () = Oqf.Execute.exec ?explain prepared src in
            match lane with
            | Caller ->
                ( name,
                  src,
                  fun () -> Result.join (Pool.capture ?timeout_ms (task run)) )
            | Pooled pool ->
                let h =
                  Pool.submit ?timeout_ms pool (fun () ->
                      if Atomic.get cancelled then Error "query cancelled"
                      else task run ())
                in
                (name, src, fun () -> Result.join (Pool.await h)))
          sources
      in
      Fun.protect
        ~finally:(fun () -> Atomic.set cancelled true)
        (fun () -> resolve ?timeout_ms ~fail_policy ~on_rows q files))
  |> Result.map (fun (rows, per_file, degraded) ->
         {
           rows;
           per_file;
           stats = Stdx.Stats.diff ~before ~after:(Stdx.Stats.snapshot ());
           from_cache = false;
           cache_superset = None;
           degraded;
         })

let run_parallel ?optimize ?explain ?force ?plan_mode ?jobs ?cache ?timeout_ms
    ?fail_policy ?qctx corpus q =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then
    Error (Printf.sprintf "jobs must be at least 1 (got %d)" jobs)
  else
    run_files ?optimize ?explain ?force ?plan_mode ?cache ?timeout_ms
      ?fail_policy ?qctx ~lanes:(Private jobs) corpus q

let run_streaming ?force ?plan_mode ?cache ?timeout_ms ?fail_policy ?qctx
    ?generation ~pool ~on_rows corpus q =
  run_files ?force ?plan_mode ?cache ?timeout_ms ?fail_policy ?qctx
    ?generation ~on_rows ~lanes:(Shared pool) corpus q
