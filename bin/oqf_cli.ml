(* oqf — optimizing queries on files.

   A command-line front end to the library: generate synthetic corpora,
   build (and persist) indices, run and explain queries, and ask the
   advisor which indices a workload needs. *)

open Cmdliner

let view_of_schema = Oqf_catalog.Schemas.find_result

let schema_arg =
  let doc = "Structuring schema: bibtex, log, sgml or mbox." in
  Arg.(required & opt (some string) None & info [ "s"; "schema" ] ~doc)

let file_arg =
  let doc = "The data file to operate on." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let index_names_arg =
  let doc =
    "Comma-separated region names to index (default: every non-terminal)."
  in
  Arg.(value & opt (some string) None & info [ "index" ] ~doc)

let split_names = function
  | None -> None
  | Some s ->
      Some
        (List.filter
           (fun x -> x <> "")
           (String.split_on_char ',' s))

let or_die = function
  | Ok x -> x
  | Error e ->
      prerr_endline ("oqf: " ^ e);
      exit 1

let parse_query q_text =
  or_die
    (Result.map_error
       (Format.asprintf "%a" Odb.Query_parser.pp_error)
       (Odb.Query_parser.parse q_text))

(* One result row on stdout, its values separated by " | ".  The row is
   written piecewise into one buffer, which goes to the channel in one
   call: no display string is built. *)
let row_buffer = Buffer.create 4096
let emit = Buffer.add_string row_buffer

let print_row ?file row =
  (match file with
  | Some file ->
      emit file;
      emit ": "
  | None -> ());
  List.iteri
    (fun i v ->
      if i > 0 then emit " | ";
      Odb.Value.iter_display emit v)
    row;
  Buffer.add_char row_buffer '\n';
  Buffer.output_buffer stdout row_buffer;
  Buffer.clear row_buffer

let resolve_index view names =
  match names with
  | Some names -> names
  | None -> Fschema.Grammar.indexable view.Fschema.View.grammar

(* --- parallelism --------------------------------------------------- *)

let jobs_arg =
  let doc =
    "Worker domains for parallel execution (default: the $(b,OQF_JOBS) \
     environment variable, else 1)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs = function
  | None -> Exec.Driver.default_jobs ()
  | Some n ->
      if n < 1 then
        or_die (Error (Printf.sprintf "jobs must be at least 1 (got %d)" n))
      else n

(* --- robustness plumbing ------------------------------------------- *)

let fail_policy_arg =
  let doc =
    "What a failing file does to the run: $(b,fail-fast) (any failure \
     fails the query, the default), $(b,partial) (failed files are \
     excluded and reported on stderr) or $(b,degrade) (retry, then \
     fall back to a naive scan of the raw file, excluding only files \
     with no remaining path to their data)."
  in
  Arg.(
    value & opt string "fail-fast" & info [ "fail-policy" ] ~docv:"POLICY" ~doc)

let resolve_fail_policy s = or_die (Exec.Driver.fail_policy_of_string s)

let faults_arg =
  let doc =
    "Arm deterministic fault injection (a testing aid), e.g. \
     $(b,transient:0.1,seed:7,burst:2) or $(b,crash:catalog.write@1); \
     same syntax as the $(b,OQF_FAULTS) environment variable."
  in
  Arg.(value & opt (some string) None & info [ "inject-faults" ] ~docv:"SPEC" ~doc)

let install_faults = function
  | None -> ()
  | Some spec -> Stdx.Fault.set (Some (or_die (Stdx.Fault.parse spec)))

(* Degradation reports go to stderr: stdout stays byte-identical to a
   fault-free run whenever every file kept a path to its data. *)
let report_degraded notes =
  if notes <> [] then Format.eprintf "%a%!" Oqf.Degrade.pp_report notes

(* --- static analysis plumbing -------------------------------------- *)

let force_arg =
  let doc =
    "Execute even when static analysis reports error-severity \
     diagnostics (e.g. a query that is provably empty on every \
     conforming file)."
  in
  Arg.(value & flag & info [ "force" ] ~doc)

(* [--format]/[--cost-threshold] are validated by hand so a bad value
   exits 1 with a message on stderr, like every other oqf error path
   (Cmdliner's own conv errors exit 124). *)
let format_arg =
  let doc = "Diagnostics format: $(b,text) or $(b,json)." in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)

let resolve_format = function
  | "text" -> `Text
  | "json" -> `Json
  | f ->
      or_die
        (Error (Printf.sprintf "unknown format %s (expected text or json)" f))

let plan_arg =
  let doc =
    "Planner: $(b,cost) enumerates rewrite-equivalent plans and picks the \
     cheapest under the catalog statistics' cardinality estimates \
     (default); $(b,rules) applies only the paper's Prop 3.5 rewrites."
  in
  Arg.(value & opt string "cost" & info [ "plan" ] ~docv:"MODE" ~doc)

let resolve_plan_mode s = or_die (Oqf_cost.Planner.mode_of_string s)

let resolve_cost_threshold = function
  | None -> None
  | Some s -> begin
      match float_of_string_opt s with
      | Some f when f > 0. -> Some f
      | _ ->
          or_die
            (Error
               (Printf.sprintf "cost threshold must be a positive number (got %s)"
                  s))
    end

(* --- observability plumbing ---------------------------------------- *)

let trace_arg =
  let doc =
    "Write an execution trace to $(docv): Chrome trace_event JSON when the \
     name ends in .json (load it in chrome://tracing or Perfetto), \
     JSON-lines otherwise."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Dump the metrics registry (counters and histograms) at exit." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* The sink is torn down via [at_exit] so the trace file is complete
   even when a later error path calls [exit 1]. *)
let install_trace = function
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let sink =
        if Filename.check_suffix path ".json" then Obs.Sink.chrome oc
        else Obs.Sink.jsonl oc
      in
      Obs.Trace.set_sink (Some sink);
      at_exit (fun () ->
          Obs.Trace.set_sink None;
          close_out oc)

let dump_metrics_if requested =
  if requested then Format.printf "%a" Obs.Metrics.dump ()

(* --- query-log plumbing -------------------------------------------- *)

let qlog_arg =
  let doc =
    "Append one ndjson record per executed query (normalized query, \
     workload, trace id, latency, rows, cache hit, phase-1 candidates, \
     estimated plan cost, degradation events) to $(docv) — the durable \
     query log, rotated by size.  $(b,oqf stats) aggregates it."
  in
  let env = Cmd.Env.info "OQF_QLOG" ~doc:"Default for $(b,--qlog)." in
  Arg.(value & opt (some string) None & info [ "qlog" ] ~docv:"FILE" ~doc ~env)

let workload_arg =
  let doc =
    "Workload label stamped on qlog records and per-workload metrics \
     (defaults to the schema name)."
  in
  Arg.(value & opt string "" & info [ "workload" ] ~docv:"LABEL" ~doc)

let slow_query_arg =
  let doc =
    "Queries at or above $(docv) milliseconds are additionally appended \
     to the slow-query log ($(b,QLOG.slow)) and counted in \
     $(b,qlog.slow)."
  in
  Arg.(
    value & opt (some float) None & info [ "slow-query-ms" ] ~docv:"MS" ~doc)

(* Torn down via [at_exit], like the trace sink: the tail record is
   flushed and fsynced even when a later error path exits 1. *)
let install_qlog ?slow_ms path =
  match path with
  | None -> ()
  | Some path -> (
      match Obs.Qlog.open_log ?slow_ms ~io_hook:Stdx.Fault.hit path with
      | Error e ->
          or_die (Error (Printf.sprintf "cannot open qlog %s: %s" path e))
      | Ok log ->
          Obs.Qlog.install (Some log);
          at_exit (fun () ->
              Obs.Qlog.install None;
              Obs.Qlog.close log))

(* A fresh per-invocation correlation context, minted only when a qlog
   is installed so the no-telemetry path stays allocation-free. *)
let fresh_qctx ~workload () =
  match Obs.Qlog.installed () with
  | None -> None
  | Some _ -> Some { Obs.Qlog.trace_id = Obs.Qlog.gen_trace_id (); workload }

(* --- generate ------------------------------------------------------ *)

let generate_cmd =
  let kind =
    let doc = "Corpus kind: bibtex, log, sgml or mbox." in
    Arg.(required & opt (some string) None & info [ "k"; "kind" ] ~doc)
  in
  let size =
    let doc = "Corpus size (references / entries / nesting depth)." in
    Arg.(value & opt int 100 & info [ "n"; "size" ] ~doc)
  in
  let seed =
    let doc = "PRNG seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc)
  in
  let out =
    let doc = "Output path (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let run kind size seed out =
    let contents =
      match kind with
      | "bibtex" ->
          Workload.Bibtex_gen.generate
            { (Workload.Bibtex_gen.with_size size) with seed }
      | "log" ->
          Workload.Log_gen.generate
            { (Workload.Log_gen.with_size size) with seed }
      | "sgml" ->
          Workload.Sgml_gen.generate
            { (Workload.Sgml_gen.with_depth size) with seed }
      | "mbox" ->
          Workload.Mbox_gen.generate
            { (Workload.Mbox_gen.with_size size) with seed }
      | k -> or_die (Error ("unknown corpus kind " ^ k))
    in
    match out with
    | None -> print_string contents
    | Some path ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %d bytes to %s\n" (String.length contents) path
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic corpus.")
    Term.(const run $ kind $ size $ seed $ out)

(* --- index --------------------------------------------------------- *)

let index_cmd =
  let out =
    let doc = "Where to write the index." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let run schema file names out =
    let view = or_die (view_of_schema schema) in
    let text = Pat.Text.of_file file in
    let keep = resolve_index view (split_names names) in
    let instance = or_die (Fschema.View.index_file view text ~keep) in
    Pat.Index_store.save ~path:out instance;
    Printf.printf "indexed %s: %d region names, %d regions, saved to %s\n"
      file
      (List.length (Pat.Instance.names instance))
      (Pat.Instance.total_regions instance)
      out
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:"Parse a file once and persist its word and region indices.")
    Term.(const run $ schema_arg $ file_arg $ index_names_arg $ out)

(* --- query --------------------------------------------------------- *)

let query_arg =
  let doc = "The query, e.g. 'SELECT r FROM References r WHERE …'." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)

let query_cmd =
  let no_optimize =
    let doc = "Evaluate the naive translation without optimization." in
    Arg.(value & flag & info [ "no-optimize" ] ~doc)
  in
  let load =
    let doc =
      "Load a persisted index (built with the index subcommand) instead of \
       re-indexing the file; FILE is then ignored."
    in
    Arg.(value & opt (some file) None & info [ "load" ] ~doc)
  in
  let baseline =
    let doc =
      "Ignore indices: parse the whole file and evaluate in the database \
       (the standard implementation)."
    in
    Arg.(value & flag & info [ "baseline" ] ~doc)
  in
  let analyze =
    let doc =
      "EXPLAIN ANALYZE: print the plan, the optimizer rewrites and the \
       per-node actual costs (next to the static cost estimates) of the \
       expressions evaluated on the index."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run schema file names q_text no_optimize load baseline explain
      force jobs fail_policy plan faults trace metrics qlog workload slow_ms =
    install_trace trace;
    install_faults faults;
    install_qlog ?slow_ms qlog;
    let qctx = fresh_qctx ~workload () in
    let fail_policy = resolve_fail_policy fail_policy in
    let plan_mode = resolve_plan_mode plan in
    let jobs = resolve_jobs jobs in
    let view = or_die (view_of_schema schema) in
    let loaded_instance =
      match load with
      | None -> None
      | Some path ->
          Some
            (or_die
               (Result.map_error Pat.Index_store.error_message
                  (Pat.Index_store.load_result ~path)))
    in
    let text =
      match loaded_instance with
      | Some instance -> Pat.Instance.text instance
      | None -> Pat.Text.of_file file
    in
    let q = parse_query q_text in
    if baseline then begin
      let rows, stats = or_die (Oqf.Execute.run_baseline view text q) in
      List.iter print_row rows;
      Format.printf "-- %d rows; %a@." (List.length rows) Stdx.Stats.pp stats
    end
    else begin
      let src =
        match loaded_instance with
        | Some instance -> Oqf.Execute.source_of_instance view instance
        | None ->
            let index = resolve_index view (split_names names) in
            or_die (Oqf.Execute.make_source view text ~index)
      in
      (* the single file is a one-file corpus on the driver, like every
         other indexed query: one recovery ladder, one qlog writer *)
      let corpus = Oqf.Corpus.of_sources [ (file, src) ] in
      let out =
        or_die
          (Exec.Driver.run_parallel ~optimize:(not no_optimize) ~explain
             ~force ~jobs ~fail_policy ~plan_mode ?qctx corpus q)
      in
      report_degraded out.Exec.Driver.degraded;
      match out.Exec.Driver.per_file with
      | [ (_, r) ] ->
          if explain then
            Format.printf "%a" (Oqf.Explain.pp ~show_times:false ~source:src) r;
          List.iter print_row r.Oqf.Execute.rows;
          Format.printf "-- %d rows (%d candidates%s); %a@."
            r.Oqf.Execute.answers_count r.Oqf.Execute.candidates_count
            (if r.Oqf.Execute.plan.Oqf.Plan.exact then ", exact plan" else "")
            Stdx.Stats.pp r.Oqf.Execute.stats
      | _ ->
          (* the file did not answer from its index: a naive
             fallback's rows are in [out.rows], an exclusion leaves
             them empty *)
          List.iter (fun (_, row) -> print_row row) out.Exec.Driver.rows;
          Format.printf "-- %d rows (degraded); %a@."
            (List.length out.Exec.Driver.rows)
            Stdx.Stats.pp out.Exec.Driver.stats
    end;
    dump_metrics_if metrics
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a query against a file.")
    Term.(
      const run $ schema_arg $ file_arg $ index_names_arg $ query_arg
      $ no_optimize $ load $ baseline $ analyze $ force_arg
      $ jobs_arg
      $ fail_policy_arg $ plan_arg $ faults_arg $ trace_arg $ metrics_arg
      $ qlog_arg $ workload_arg $ slow_query_arg)

(* --- explain ------------------------------------------------------- *)

let explain_cmd =
  (* explain is static analysis: the file argument is accepted for a
     uniform command shape but its contents are not read *)
  let run schema _file names q_text =
    let view = or_die (view_of_schema schema) in
    let q = parse_query q_text in
    let index = resolve_index view (split_names names) in
    print_string (or_die (Oqf.Advisor.explain view ~index q))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the plan, the optimized region expressions and costs.")
    Term.(const run $ schema_arg $ file_arg $ index_names_arg $ query_arg)

(* --- tree ---------------------------------------------------------- *)

let tree_cmd =
  let run schema file names =
    let view = or_die (view_of_schema schema) in
    let text = Pat.Text.of_file file in
    match Fschema.Parser_engine.parse view.Fschema.View.grammar text with
    | Error e ->
        or_die (Error (Format.asprintf "%a" Fschema.Parser_engine.pp_error e))
    | Ok tree ->
        let keep = split_names names in
        Format.printf "%a" (Fschema.Parse_tree.pp ?keep) tree
  in
  Cmd.v
    (Cmd.info "tree"
       ~doc:
         "Print a file's parse tree; with --index, only the indexed names \
          (the view of the paper's Figures 2 and 3).")
    Term.(const run $ schema_arg $ file_arg $ index_names_arg)

(* --- schema -------------------------------------------------------- *)

let schema_cmd =
  let dot =
    let doc = "Emit the region inclusion graph in GraphViz DOT format." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let run schema dot =
    let view = or_die (view_of_schema schema) in
    let rig = Fschema.Rig_of_grammar.full view.Fschema.View.grammar in
    if dot then print_string (Ralg.Rig.to_dot rig)
    else begin
      Format.printf "%a@." Fschema.Grammar.pp view.Fschema.View.grammar;
      Format.printf "@.derived database types (§4.1):@.";
      print_string (Fschema.Schema_types.to_string view);
      Format.printf "@.region inclusion graph:@.%a@." Ralg.Rig.pp rig
    end
  in
  Cmd.v
    (Cmd.info "schema"
       ~doc:
         "Print a structuring schema: grammar, derived database types and \
          the region inclusion graph (optionally as GraphViz DOT).")
    Term.(const run $ schema_arg $ dot)

(* --- rexpr --------------------------------------------------------- *)

let rexpr_cmd =
  let expr_arg =
    let doc = "A region expression, e.g. 'Reference > sigma[\"Chang\"](Last_Name)'." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"EXPR" ~doc)
  in
  let show_text =
    let doc = "Print the text of each resulting region." in
    Arg.(value & flag & info [ "text" ] ~doc)
  in
  let run schema file names expr_text show_text trace metrics =
    install_trace trace;
    let view = or_die (view_of_schema schema) in
    let text = Pat.Text.of_file file in
    let expr =
      match Ralg.Expr_parser.parse expr_text with
      | Ok e -> e
      | Error e ->
          or_die (Error (Format.asprintf "%a" Ralg.Expr_parser.pp_error e))
    in
    let keep = resolve_index view (split_names names) in
    let instance = or_die (Fschema.View.index_file view text ~keep) in
    let rig = Fschema.Rig_of_grammar.for_index view.Fschema.View.grammar ~keep in
    if Ralg.Trivial.check rig expr then
      print_endline "(trivially empty under the schema's RIG)"
    else begin
      let optimized = Ralg.Optimizer.optimize rig expr in
      if not (Ralg.Expr.equal optimized expr) then
        Format.printf "optimized: %a@." Ralg.Expr.pp optimized;
      let result = Ralg.Eval.eval instance optimized in
      Pat.Region_set.iter
        (fun r ->
          if show_text then
            Format.printf "%a %S@." Pat.Region.pp r (Pat.Region.text text r)
          else Format.printf "%a@." Pat.Region.pp r)
        result;
      Format.printf "-- %d regions@." (Pat.Region_set.cardinal result)
    end;
    dump_metrics_if metrics
  in
  Cmd.v
    (Cmd.info "rexpr"
       ~doc:"Evaluate a raw region-algebra expression against a file.")
    Term.(
      const run $ schema_arg $ file_arg $ index_names_arg $ expr_arg
      $ show_text $ trace_arg $ metrics_arg)

(* --- catalog ------------------------------------------------------- *)

let catalog_dir_arg =
  let doc = "The catalog directory." in
  Arg.(required & opt (some string) None & info [ "c"; "catalog" ] ~doc)

let open_catalog dir =
  let cat = or_die (Oqf_catalog.Catalog.open_dir dir) in
  List.iter
    (fun w -> Format.eprintf "oqf: warning: %s@." w)
    (Oqf_catalog.Catalog.recovery_warnings cat);
  cat

(* Refresh every entry of the queried schema, as serve does per
   request; the other schemas' files are never opened, so one of them
   going missing cannot fail the query.  A current index is left for
   the load to check (and heal), so each is read and hashed once.  Every entry is attempted, so
   the healthy ones are up to date either way.  Under fail-fast the
   collected failures then fail the command; under the recovery
   policies they become warnings — load-time self-healing and the
   driver's recovery ladder still get their chance per file. *)
let refresh_catalog cat ~schema ~fail_policy =
  let failures =
    List.filter_map
      (fun (e : Oqf_catalog.Catalog.entry) ->
        if e.schema <> schema then None
        else
          match Oqf_catalog.Catalog.refresh_for_load cat e.source with
          | Ok _ -> None
          | Error msg -> Some msg)
      (Oqf_catalog.Catalog.entries cat)
  in
  match (fail_policy, failures) with
  | _, [] -> ()
  | Exec.Driver.Fail_fast, msgs ->
      List.iter (fun msg -> Format.eprintf "oqf: %s@." msg) msgs;
      exit 1
  | (Exec.Driver.Partial | Exec.Driver.Degrade), msgs ->
      List.iter (fun msg -> Format.eprintf "oqf: warning: %s@." msg) msgs

(* The corpus plus the files already lost before execution started
   (index dead and unhealable): failure under fail-fast, Excluded
   notes otherwise. *)
let corpus_of_catalog cat ~schema ~fail_policy =
  match fail_policy with
  | Exec.Driver.Fail_fast ->
      (or_die (Oqf.Corpus.of_catalog cat ~schema), [])
  | Exec.Driver.Partial | Exec.Driver.Degrade ->
      or_die (Oqf.Corpus.of_catalog_robust cat ~schema)

let catalog_init_cmd =
  let dir =
    let doc = "Directory to hold the catalog (created if missing)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let run dir =
    let (_ : Oqf_catalog.Catalog.t) = or_die (Oqf_catalog.Catalog.init dir) in
    Printf.printf "initialized empty catalog in %s\n" dir
  in
  Cmd.v
    (Cmd.info "init" ~doc:"Create an empty index catalog in a directory.")
    Term.(const run $ dir)

let catalog_add_cmd =
  let run dir schema names file faults =
    install_faults faults;
    let cat = open_catalog dir in
    let index = split_names names in
    let entry = or_die (Oqf_catalog.Catalog.add cat ~schema ?index file) in
    Printf.printf "added %s (schema %s): %d region names indexed\n"
      entry.Oqf_catalog.Catalog.source entry.Oqf_catalog.Catalog.schema
      (List.length entry.Oqf_catalog.Catalog.index_names)
  in
  Cmd.v
    (Cmd.info "add"
       ~doc:"Index a source file and record it in the catalog.")
    Term.(
      const run $ catalog_dir_arg $ schema_arg $ index_names_arg $ file_arg
      $ faults_arg)

let catalog_refresh_cmd =
  let file =
    let doc = "Refresh only this source (default: every entry)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run dir file =
    let cat = open_catalog dir in
    let report (source, outcome) =
      Format.printf "%s: %a@." source Oqf_catalog.Catalog.pp_refresh outcome
    in
    match file with
    | Some source ->
        report (source, or_die (Oqf_catalog.Catalog.refresh cat source))
    | None ->
        (* refresh_all keeps going past a failing entry; the others
           still refresh, and every failure is reported *)
        let failed =
          List.fold_left
            (fun failed (source, outcome) ->
              match outcome with
              | Ok outcome ->
                  report (source, outcome);
                  failed
              | Error msg ->
                  Format.eprintf "%s@." msg;
                  true)
            false
            (Oqf_catalog.Catalog.refresh_all cat)
        in
        if failed then exit 1
  in
  Cmd.v
    (Cmd.info "refresh"
       ~doc:
         "Bring stale entries up to date: incremental extension for \
          append-only growth, full rebuild otherwise.")
    Term.(const run $ catalog_dir_arg $ file)

let catalog_status_cmd =
  let run dir =
    let cat = open_catalog dir in
    match Oqf_catalog.Catalog.status cat with
    | [] -> print_endline "catalog is empty"
    | rows ->
        List.iter
          (fun ((e : Oqf_catalog.Catalog.entry), st) ->
            Format.printf "%-9s %-7s %8dB  %a@." e.schema
              (Printf.sprintf "%d names" (List.length e.index_names))
              e.length Oqf_catalog.Catalog.pp_staleness st;
            Format.printf "  %s -> %s@." e.source e.index_file)
          rows
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Fingerprint every source and report freshness per entry.")
    Term.(const run $ catalog_dir_arg)

let catalog_stats_cmd =
  (* both renderings sort per-name stats by region name, so the output
     is deterministic whatever order the manifest happens to hold *)
  let sorted_stats (e : Oqf_catalog.Catalog.entry) =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) e.stats
  in
  let run dir fmt =
    let fmt = resolve_format fmt in
    let cat = open_catalog dir in
    let entries = Oqf_catalog.Catalog.entries cat in
    match fmt with
    | `Json ->
        let entry_json (e : Oqf_catalog.Catalog.entry) =
          Obs.Jsonx.Obj
            [
              ("source", Obs.Jsonx.Str e.source);
              ("schema", Obs.Jsonx.Str e.schema);
              ("length", Obs.Jsonx.Num (float_of_int e.length));
              ( "names",
                Obs.Jsonx.Arr
                  (List.map
                     (fun (name, regions, mps) ->
                       let base =
                         [
                           ("name", Obs.Jsonx.Str name);
                           ("regions", Obs.Jsonx.Num (float_of_int regions));
                           ( "match_points",
                             Obs.Jsonx.Num (float_of_int mps) );
                         ]
                       in
                       let depths =
                         match List.assoc_opt name e.depths with
                         | None | Some [||] -> []
                         | Some hist ->
                             [
                               ( "depths",
                                 Obs.Jsonx.Arr
                                   (Array.to_list hist
                                   |> List.map (fun c ->
                                          Obs.Jsonx.Num (float_of_int c))) );
                             ]
                       in
                       Obs.Jsonx.Obj (base @ depths))
                     (sorted_stats e)) );
            ]
        in
        print_endline
          (Obs.Jsonx.to_string
             (Obs.Jsonx.Obj
                [ ("entries", Obs.Jsonx.Arr (List.map entry_json entries)) ]))
    | `Text -> begin
        match entries with
        | [] -> print_endline "catalog is empty"
        | entries ->
            let t_regions = ref 0 and t_mps = ref 0 in
            List.iter
              (fun (e : Oqf_catalog.Catalog.entry) ->
                Printf.printf "%s (schema %s, %dB)\n" e.source e.schema
                  e.length;
                (match sorted_stats e with
                | [] ->
                    print_endline
                      "  (no stats recorded; re-run catalog refresh to \
                       collect them)"
                | stats ->
                    List.iter
                      (fun (name, regions, mps) ->
                        t_regions := !t_regions + regions;
                        t_mps := !t_mps + mps;
                        Printf.printf "  %-16s %8d regions %10d match points\n"
                          name regions mps)
                      stats))
              entries;
            Printf.printf "-- %d entries: regions=%d match-points=%d\n"
              (List.length entries) !t_regions !t_mps
      end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Report per-name region and match-point counts recorded in the \
          manifest at build time.  Entries indexed before the counts \
          existed show none until their next refresh or rebuild.")
    Term.(const run $ catalog_dir_arg $ format_arg)

let catalog_query_cmd =
  let query =
    let doc = "The query, run against every catalogued file of the schema." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let no_refresh =
    let doc = "Query the persisted indices as they are, without a staleness check." in
    Arg.(value & flag & info [ "no-refresh" ] ~doc)
  in
  let run dir schema q_text no_refresh jobs fail_policy plan faults metrics =
    install_faults faults;
    let fail_policy = resolve_fail_policy fail_policy in
    let plan_mode = resolve_plan_mode plan in
    let jobs = resolve_jobs jobs in
    let cat = open_catalog dir in
    if not no_refresh then refresh_catalog cat ~schema ~fail_policy;
    let q = parse_query q_text in
    let corpus, lost = corpus_of_catalog cat ~schema ~fail_policy in
    (* the parallel driver merges in corpus order, so the output is
       byte-identical whatever the jobs count — CI runs this at
       OQF_JOBS=4 against the same expectations *)
    let r =
      or_die (Exec.Driver.run_parallel ~jobs ~fail_policy ~plan_mode corpus q)
    in
    report_degraded (lost @ r.Exec.Driver.degraded);
    List.iter (fun (file, row) -> print_row ~file row) r.Exec.Driver.rows;
    Format.printf "-- %d rows from %d files; %a@."
      (List.length r.Exec.Driver.rows)
      (List.length (Oqf.Corpus.files corpus))
      Stdx.Stats.pp r.Exec.Driver.stats;
    Format.printf "-- instance cache: %a@." Oqf_catalog.Instance_cache.pp_stats
      (Oqf_catalog.Instance_cache.stats (Oqf_catalog.Catalog.cache cat));
    dump_metrics_if metrics
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Run a query against every catalogued file of a schema, straight \
          off the persisted indices (refreshing that schema's stale \
          entries first; other schemas are not touched).")
    Term.(
      const run $ catalog_dir_arg $ schema_arg $ query $ no_refresh $ jobs_arg
      $ fail_policy_arg $ plan_arg $ faults_arg $ metrics_arg)

let catalog_repair_cmd =
  let run dir fmt =
    let fmt = resolve_format fmt in
    let cat = open_catalog dir in
    let actions = Oqf_catalog.Catalog.repair cat in
    match fmt with
    | `Json ->
        let item (file, a) =
          let action, detail =
            match a with
            | Oqf_catalog.Catalog.Healed reason -> ("healed", reason)
            | Oqf_catalog.Catalog.Quarantined reason -> ("quarantined", reason)
            | Oqf_catalog.Catalog.Removed_orphan ->
                ("removed-orphan", "unreferenced index file")
            | Oqf_catalog.Catalog.Collapsed_generation g ->
                ( "collapsed-generation",
                  Printf.sprintf "stray generation %d" g )
          in
          Obs.Jsonx.(
            Obj
              [
                ("file", Str file); ("action", Str action); ("detail", Str detail);
              ])
        in
        print_endline
          (Obs.Jsonx.to_string (Obs.Jsonx.Arr (List.map item actions)))
    | `Text -> begin
        match actions with
        | [] -> print_endline "catalog is healthy; nothing to repair"
        | actions ->
            List.iter
              (fun (file, a) ->
                Format.printf "%s: %a@." file
                  Oqf_catalog.Catalog.pp_repair_action a)
              actions;
            let count p = List.length (List.filter (fun (_, a) -> p a) actions) in
            Printf.printf
              "-- healed=%d quarantined=%d orphans-removed=%d \
               generations-collapsed=%d\n"
              (count (function Oqf_catalog.Catalog.Healed _ -> true | _ -> false))
              (count (function
                | Oqf_catalog.Catalog.Quarantined _ -> true
                | _ -> false))
              (count (function
                | Oqf_catalog.Catalog.Removed_orphan -> true
                | _ -> false))
              (count (function
                | Oqf_catalog.Catalog.Collapsed_generation _ -> true
                | _ -> false))
      end
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Apply the self-healing logic offline: rebuild missing or corrupt \
          indices from their sources, drop entries whose source file is \
          gone, and sweep orphan index files.  Entries that are merely \
          stale are left for refresh.")
    Term.(const run $ catalog_dir_arg $ format_arg)

let catalog_audit_cmd =
  let run dir fmt =
    let fmt = resolve_format fmt in
    let cat = open_catalog dir in
    let ds = Analysis.Catalog_audit.audit cat in
    (match fmt with
    | `Json -> print_endline (Analysis.Diagnostic.list_to_json ds)
    | `Text ->
        List.iter
          (fun d -> print_endline (Analysis.Diagnostic.to_string d))
          ds;
        let e, w, h = Analysis.Diagnostic.count ds in
        Printf.printf "-- audited %d entries: errors=%d warnings=%d hints=%d\n"
          (List.length (Oqf_catalog.Catalog.entries cat))
          e w h);
    if Analysis.Diagnostic.has_errors ds then exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Audit the catalog for stale fingerprints (OQF201), orphan index \
          files nothing references (OQF202) and manifest entries whose \
          source or index is missing (OQF203).  Exits 1 when any \
          error-severity diagnostic is found.")
    Term.(const run $ catalog_dir_arg $ format_arg)

let catalog_cmd =
  Cmd.group
    (Cmd.info "catalog"
       ~doc:
         "Manage a persistent catalog of indexed files: init, add, refresh \
          (incremental for append-only sources), status, audit, repair and \
          multi-file query.")
    [
      catalog_init_cmd; catalog_add_cmd; catalog_refresh_cmd;
      catalog_status_cmd; catalog_stats_cmd; catalog_query_cmd;
      catalog_audit_cmd; catalog_repair_cmd;
    ]

(* --- batch --------------------------------------------------------- *)

let batch_cmd =
  let queries_file =
    let doc =
      "File with one query per line; blank lines and lines starting with \
       $(b,#) are skipped."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERIES" ~doc)
  in
  let data =
    let doc =
      "A data file to query (repeatable); the alternative to --catalog."
    in
    Arg.(value & opt_all file [] & info [ "f"; "data" ] ~docv:"FILE" ~doc)
  in
  let catalog_dir =
    let doc = "Query every catalogued file of the schema in this catalog." in
    Arg.(value & opt (some string) None & info [ "c"; "catalog" ] ~docv:"DIR" ~doc)
  in
  let read_queries path =
    let ic = open_in path in
    let rec go n acc =
      match input_line ic with
      | exception End_of_file ->
          close_in ic;
          List.rev acc
      | line ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then go (n + 1) acc
          else begin
            match Odb.Query_parser.parse line with
            | Ok q -> go (n + 1) ((line, q) :: acc)
            | Error e ->
                close_in ic;
                or_die
                  (Error
                     (Format.asprintf "%s:%d: %a" path n Odb.Query_parser.pp_error
                        e))
          end
    in
    go 1 []
  in
  let run schema queries_file data catalog_dir force jobs fail_policy plan
      faults trace metrics qlog workload slow_ms =
    install_trace trace;
    install_faults faults;
    install_qlog ?slow_ms qlog;
    let fail_policy = resolve_fail_policy fail_policy in
    let plan_mode = resolve_plan_mode plan in
    let jobs = resolve_jobs jobs in
    let queries = read_queries queries_file in
    if queries = [] then or_die (Error (queries_file ^ ": no queries"));
    let corpus =
      match (catalog_dir, data) with
      | Some _, _ :: _ -> or_die (Error "--catalog and --data are exclusive")
      | Some dir, [] ->
          let cat = open_catalog dir in
          refresh_catalog cat ~schema ~fail_policy;
          let corpus, lost = corpus_of_catalog cat ~schema ~fail_policy in
          report_degraded lost;
          corpus
      | None, [] -> or_die (Error "need --catalog DIR or --data FILE")
      | None, files ->
          let view = or_die (view_of_schema schema) in
          or_die
            (Oqf.Corpus.make_full view
               (List.map (fun f -> (f, Pat.Text.of_file f)) files))
    in
    let cache = Exec.Rcache.create () in
    (* queries in input order, each query's files in parallel on one
       shared pool; rows are printed once the query has settled.  One
       worker would only hand each file back in turn, so --jobs 1 runs
       the files on the caller, as [oqf query] does, and spawns no
       domain. *)
    let batch run =
      List.fold_left
        (fun failed (line, q) ->
          let result = run (fresh_qctx ~workload ()) q in
          Printf.printf "== %s\n" line;
          match result with
          | Error e ->
              Printf.printf "-- error: %s\n" e;
              true
          | Ok (out : Exec.Driver.outcome) ->
              List.iter (fun (file, row) -> print_row ~file row)
                out.Exec.Driver.rows;
              Printf.printf "-- %d rows%s\n"
                (List.length out.Exec.Driver.rows)
                (if out.Exec.Driver.from_cache then " (cached)" else "");
              report_degraded out.Exec.Driver.degraded;
              failed)
        false queries
    in
    let failed =
      if jobs = 1 then
        batch (fun qctx q ->
            Exec.Driver.run_parallel ~jobs ~force ~cache ~fail_policy ~plan_mode
              ?qctx corpus q)
      else
        Exec.Pool.with_pool ~jobs @@ fun pool ->
        batch (fun qctx q ->
            Exec.Driver.run_streaming ~force ~cache ~fail_policy ~plan_mode
              ?qctx ~pool
              ~on_rows:(fun ~file:_ _ -> ())
              corpus q)
    in
    Format.printf "-- result cache: %a@." Exec.Rcache.pp_stats
      (Exec.Rcache.stats cache);
    dump_metrics_if metrics;
    if failed then exit 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a file of queries, in order, against a corpus (from a \
          catalog or from data files), each query's files in parallel on \
          one pool of $(b,--jobs) worker domains (none at $(b,--jobs) 1), \
          sharing one fingerprint-keyed result cache.")
    Term.(
      const run $ schema_arg $ queries_file $ data $ catalog_dir $ force_arg
      $ jobs_arg $ fail_policy_arg $ plan_arg $ faults_arg $ trace_arg
      $ metrics_arg $ qlog_arg $ workload_arg $ slow_query_arg)

(* --- check --------------------------------------------------------- *)

(* Non-comment lines of a query/expression file, with line numbers. *)
let read_check_lines path =
  let ic = open_in path in
  let rec go n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (n + 1) acc
        else go (n + 1) ((n, line) :: acc)
  in
  go 1 []

(* A declared RIG file: one [A -> B] line per edge, a bare name per
   isolated node, [#] comments. *)
let parse_rig_file path =
  let split_arrow line =
    let n = String.length line in
    let rec find i =
      if i + 2 > n then None
      else if String.sub line i 2 = "->" then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> `Node (String.trim line)
    | Some i ->
        `Edge
          ( String.trim (String.sub line 0 i),
            String.trim (String.sub line (i + 2) (n - i - 2)) )
  in
  let nodes, edges =
    List.fold_left
      (fun (nodes, edges) (lineno, line) ->
        match split_arrow line with
        | `Node n when n <> "" -> (n :: nodes, edges)
        | `Edge (a, b) when a <> "" && b <> "" ->
            (a :: b :: nodes, (a, b) :: edges)
        | _ ->
            or_die
              (Error (Printf.sprintf "%s:%d: bad RIG line %S" path lineno line)))
      ([], []) (read_check_lines path)
  in
  Ralg.Rig.create
    ~names:(List.sort_uniq String.compare nodes)
    ~edges:(List.rev edges)

let check_cmd =
  let queries_files =
    let doc =
      "Check every query in $(docv), one per line (blank lines and lines \
       starting with $(b,#) are skipped).  Repeatable."
    in
    Arg.(value & opt_all file [] & info [ "queries" ] ~docv:"FILE" ~doc)
  in
  let exprs =
    let doc = "Check a raw region-algebra expression.  Repeatable." in
    Arg.(value & opt_all string [] & info [ "expr" ] ~docv:"EXPR" ~doc)
  in
  let pos_queries =
    let doc = "Queries to check." in
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  let cost_threshold =
    let doc =
      "OQF006 threshold: warn when a direct-inclusion expression's \
       estimated cost exceeds $(docv) (default 50000).  The estimate is the \
       cost planner's model under uniform statistics (no file is read)."
    in
    Arg.(value & opt (some string) None & info [ "cost-threshold" ] ~docv:"N" ~doc)
  in
  let declared_rig =
    let doc =
      "Check the schema-derived RIG against the one declared in $(docv) \
       (one $(b,A -> B) line per edge, bare names for isolated nodes)."
    in
    Arg.(value & opt (some file) None & info [ "declared-rig" ] ~docv:"FILE" ~doc)
  in
  let list_codes =
    let doc =
      "Print the full diagnostic code table (code, severity, one-line \
       meaning) in the selected $(b,--format) and exit."
    in
    Arg.(value & flag & info [ "list-codes" ] ~doc)
  in
  let schema_opt =
    let doc = "Structuring schema: bibtex, log, sgml or mbox." in
    Arg.(value & opt (some string) None & info [ "s"; "schema" ] ~doc)
  in
  let run schema names queries_files exprs fmt threshold declared_rig
      list_codes pos_queries =
    let fmt = resolve_format fmt in
    if list_codes then begin
      (* one rendering path with the checkers: each row is a Diagnostic,
         so the JSON shape matches what --format json emits for real
         findings *)
      let rows =
        List.map
          (fun (code, severity, descr) ->
            Analysis.Diagnostic.make ~code ~severity descr)
          Analysis.Diagnostic.registry
      in
      (match fmt with
      | `Json -> print_endline (Analysis.Diagnostic.list_to_json rows)
      | `Text ->
          List.iter
            (fun (code, severity, descr) ->
              Printf.printf "%s  %-7s  %s\n" code
                (Analysis.Diagnostic.severity_to_string severity)
                descr)
            Analysis.Diagnostic.registry);
      exit 0
    end;
    let schema =
      match schema with
      | Some s -> s
      | None -> or_die (Error "a schema is required: pass -s bibtex|log|sgml|mbox")
    in
    let threshold = resolve_cost_threshold threshold in
    let view = or_die (view_of_schema schema) in
    let index = resolve_index view (split_names names) in
    let env = Oqf.Compile.env view ~index in
    let parse_failure pp e =
      [
        Analysis.Diagnostic.make ~code:"OQF000"
          ~severity:Analysis.Diagnostic.Error (Format.asprintf "%a" pp e);
      ]
    in
    let check_query text =
      match Odb.Query_parser.parse text with
      | Error e -> parse_failure Odb.Query_parser.pp_error e
      | Ok q ->
          (Oqf.Check.query ~text ?cost_threshold:threshold env q)
            .Oqf.Check.diagnostics
    in
    let check_expr text =
      match Ralg.Expr_parser.parse text with
      | Error e -> parse_failure Ralg.Expr_parser.pp_error e
      | Ok e ->
          Analysis.Expr_check.check ~text ?cost_threshold:threshold
            env.Oqf.Compile.query_rig e
    in
    let file_entries =
      List.concat_map
        (fun path ->
          List.map
            (fun (n, line) -> (Printf.sprintf "%s:%d: %s" path n line, line))
            (read_check_lines path))
        queries_files
    in
    let query_entries = List.map (fun q -> (q, q)) pos_queries in
    let file_items =
      List.map (fun (label, line) -> (label, check_query line)) file_entries
    in
    let query_items =
      List.map (fun (label, q) -> (label, check_query q)) query_entries
    in
    let expr_items = List.map (fun e -> (e, check_expr e)) exprs in
    (* cross-query pass: two or more parseable queries in one
       invocation are analyzed as a batch for OQF304 subsumption *)
    let cross_items =
      let parsed =
        List.filter_map
          (fun (label, text) ->
            match Odb.Query_parser.parse text with
            | Ok q -> Some (label, q)
            | Error _ -> None)
          (file_entries @ query_entries)
      in
      if List.length parsed < 2 then []
      else begin
        match Oqf.Check.cross_query parsed with
        | [] -> []
        | ds -> [ ("cross-query analysis", ds) ]
      end
    in
    (* schema-level checks run when no query/expression inputs are
       given, and whenever a declared RIG asks for the comparison *)
    let schema_items =
      if
        (file_items = [] && query_items = [] && expr_items = [])
        || declared_rig <> None
      then begin
        let declared = Option.map parse_rig_file declared_rig in
        [
          ( "schema " ^ schema,
            Analysis.Schema_check.check ?declared_rig:declared view );
        ]
      end
      else []
    in
    let items =
      file_items @ query_items @ expr_items @ cross_items @ schema_items
    in
    let all = List.concat_map snd items in
    (match fmt with
    | `Json -> print_endline (Analysis.Diagnostic.list_to_json all)
    | `Text ->
        List.iter
          (fun (label, ds) ->
            Printf.printf "== %s\n" label;
            match ds with
            | [] -> print_endline "  ok"
            | ds ->
                List.iter
                  (fun d ->
                    Printf.printf "  %s\n" (Analysis.Diagnostic.to_string d))
                  ds)
          items;
        let e, w, h = Analysis.Diagnostic.count all in
        Printf.printf "-- errors=%d warnings=%d hints=%d\n" e w h);
    if Analysis.Diagnostic.has_errors all then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze queries, region expressions and structuring \
          schemas against the RIG: trivial emptiness (OQF001), unknown \
          names (OQF002), optimizer rewrites (OQF003/4), unreachable pairs \
          (OQF005), cost under the planner's model (OQF006), containment findings (OQF301-305, with \
          a cross-query subsumption pass over batches) and schema checks \
          (OQF101-103).  $(b,--list-codes) prints the full code table.  \
          Exits 1 when any error-severity diagnostic is found.")
    Term.(
      const run $ schema_opt $ index_names_arg $ queries_files $ exprs
      $ format_arg $ cost_threshold $ declared_rig $ list_codes
      $ pos_queries)

(* --- advise -------------------------------------------------------- *)

let advise_cmd =
  let schema =
    let doc =
      "Structuring schema: bibtex, log, sgml or mbox.  Required with \
       positional queries; with $(b,--qlog) it restricts the replay to \
       that schema's queries (each record carries its own schema)."
    in
    Arg.(value & opt (some string) None & info [ "s"; "schema" ] ~doc)
  in
  let queries =
    let doc = "Queries of the workload (compute a sufficient index set)." in
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  let qlogs =
    let doc =
      "Replay the query log in $(docv) against the cost model and \
       recommend index changes with predicted latency savings.  \
       Repeatable (pass rotated segments in order)."
    in
    Arg.(value & opt_all file [] & info [ "qlog" ] ~docv:"FILE" ~doc)
  in
  let catalog_dir =
    let doc =
      "Price the replay with this catalog's recorded statistics \
       (cardinalities, match-point densities, depth histograms); without \
       it, uniform statistics are assumed."
    in
    Arg.(
      value & opt (some string) None & info [ "c"; "catalog" ] ~docv:"DIR" ~doc)
  in
  let top =
    let doc = "Show at most $(docv) recommendations." in
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc)
  in
  (* compile-for-replay: how would each variable of [q_text] be
     answered under [index]?  Injected into the advisor so lib/cost
     needs no dependency on the query compiler. *)
  let replay_compile ~index ~schema q_text =
    match view_of_schema schema with
    | Error e -> Error e
    | Ok view -> (
        match Odb.Query_parser.parse q_text with
        | Error e -> Error (Format.asprintf "%a" Odb.Query_parser.pp_error e)
        | Ok q -> (
            match Oqf.Compile.compile (Oqf.Compile.env view ~index) q with
            | Error e -> Error e
            | Ok plan ->
                Ok
                  (List.map
                     (fun (vp : Oqf.Plan.var_plan) ->
                       match vp.Oqf.Plan.candidates with
                       | Oqf.Plan.All -> `Scan
                       | Oqf.Plan.Empty -> `Empty
                       | Oqf.Plan.Expr e -> `Index (e, vp.Oqf.Plan.covered))
                     plan.Oqf.Plan.var_plans)))
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let run schema names queries qlogs catalog_dir top fmt =
    let fmt = resolve_format fmt in
    match (queries, qlogs) with
    | [], [] -> or_die (Error "need QUERY arguments or --qlog FILE")
    | _ :: _, _ :: _ ->
        or_die (Error "positional queries and --qlog are exclusive")
    | (_ :: _ as queries), [] ->
        (* sufficient-index mode (§7): which names make every query of
           the workload exactly answerable from the index *)
        let schema =
          match schema with
          | Some s -> s
          | None -> or_die (Error "positional queries require --schema")
        in
        let view = or_die (view_of_schema schema) in
        let module Sset = Set.Make (String) in
        let names =
          List.fold_left
            (fun acc q_text ->
              let names =
                or_die (Oqf.Advisor.required_indices view (parse_query q_text))
              in
              Sset.union acc (Sset.of_list names))
            Sset.empty queries
        in
        Printf.printf "index these region names for exact evaluation:\n  %s\n"
          (String.concat ", " (Sset.elements names))
    | [], qlogs ->
        (* workload-replay mode: cost-model what the log actually ran *)
        let stats =
          match catalog_dir with
          | None -> Oqf_cost.Stats.uniform ()
          | Some dir ->
              let cat = open_catalog dir in
              Oqf_cost.Stats.of_entries (Oqf_catalog.Catalog.entries cat)
        in
        let agg = or_die (Obs.Qstats.of_files ~top:1000 qlogs) in
        let items =
          let module SM = Map.Make (String) in
          let add m (q : Obs.Qstats.query) =
            if SM.mem q.Obs.Qstats.text m then m
            else
              SM.add q.Obs.Qstats.text
                {
                  Oqf_cost.Advise.query = q.Obs.Qstats.text;
                  schema = q.Obs.Qstats.schema;
                  workload = q.Obs.Qstats.workload;
                  count = q.Obs.Qstats.count;
                  total_ms = q.Obs.Qstats.total_ms;
                }
                m
          in
          let m =
            List.fold_left add (SM.empty : Oqf_cost.Advise.item SM.t)
              (agg.Obs.Qstats.by_count @ agg.Obs.Qstats.by_total_ms)
          in
          let all = List.map snd (SM.bindings m) in
          match schema with
          | None -> all
          | Some s ->
              List.filter (fun (i : Oqf_cost.Advise.item) -> i.schema = s) all
        in
        let schemas =
          List.filter_map
            (fun (i : Oqf_cost.Advise.item) ->
              if i.schema = "" then None else Some i.schema)
            items
          |> List.sort_uniq compare
        in
        let indexable =
          List.concat_map
            (fun s ->
              match view_of_schema s with
              | Ok view -> Fschema.Grammar.indexable view.Fschema.View.grammar
              | Error _ -> [])
            schemas
          |> List.sort_uniq compare
        in
        let index =
          match split_names names with Some ns -> ns | None -> indexable
        in
        let recs =
          take top
            (Oqf_cost.Advise.advise ~stats ~compile:replay_compile ~index
               ~indexable items)
        in
        let action_str = function `Add -> "add" | `Drop -> "drop" in
        (match fmt with
        | `Json ->
            let rec_json (r : Oqf_cost.Advise.recommendation) =
              Obs.Jsonx.Obj
                [
                  ("action", Obs.Jsonx.Str (action_str r.action));
                  ("name", Obs.Jsonx.Str r.name);
                  ("predicted_ms", Obs.Jsonx.Num r.predicted_ms);
                  ("queries", Obs.Jsonx.Num (float_of_int r.queries));
                  ("detail", Obs.Jsonx.Str r.detail);
                ]
            in
            print_endline
              (Obs.Jsonx.to_string
                 (Obs.Jsonx.Obj
                    [
                      ("replayed", Obs.Jsonx.Num (float_of_int (List.length items)));
                      ("records", Obs.Jsonx.Num (float_of_int agg.Obs.Qstats.records));
                      ( "recommendations",
                        Obs.Jsonx.Arr (List.map rec_json recs) );
                    ]))
        | `Text ->
            Printf.printf "replayed %d distinct queries from %d qlog records\n"
              (List.length items) agg.Obs.Qstats.records;
            if recs = [] then
              print_endline
                "no index changes recommended: the workload is served as \
                 well as the candidate set allows"
            else
              List.iter
                (fun (r : Oqf_cost.Advise.recommendation) ->
                  Printf.printf "%s %s: %s\n" (action_str r.action) r.name
                    r.detail)
                recs)
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Compute a sufficient index set for a query workload (§7), or \
          replay a query log against the cost model and recommend index \
          changes with predicted savings.")
    Term.(
      const run $ schema $ index_names_arg $ queries $ qlogs $ catalog_dir
      $ top $ format_arg)

(* --- serve / client ------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let http_port =
    let doc = "Also serve the protocol over HTTP on 127.0.0.1:$(docv)." in
    Arg.(value & opt (some int) None & info [ "http" ] ~docv:"PORT" ~doc)
  in
  let max_active =
    let doc = "Concurrently executing requests (admission slots)." in
    Arg.(value & opt int 8 & info [ "max-active" ] ~docv:"N" ~doc)
  in
  let max_queue =
    let doc =
      "Admission queue bound; a request arriving with the queue full is \
       answered with a typed $(b,overloaded) event instead of waiting."
    in
    Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let timeout =
    let doc =
      "Default per-file deadline in milliseconds for requests that carry \
       none."
    in
    Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let drain =
    let doc = "Shutdown grace for in-flight requests (milliseconds)." in
    Arg.(value & opt float 2000. & info [ "drain-ms" ] ~docv:"MS" ~doc)
  in
  let watch =
    let doc =
      "Ingest source changes continuously: a background watcher polls \
       every catalogued source and commits refreshed generations while \
       requests keep streaming from their pinned snapshots."
    in
    Arg.(value & flag & info [ "watch" ] ~doc)
  in
  let watch_interval =
    let doc = "Watcher poll interval in milliseconds (with $(b,--watch))." in
    Arg.(
      value
      & opt float 500.
      & info [ "watch-interval-ms" ] ~docv:"MS" ~doc)
  in
  let run catalog_dir socket http_port jobs max_active max_queue timeout
      fail_policy drain watch watch_interval faults metrics qlog slow_ms =
    install_faults faults;
    install_qlog ?slow_ms qlog;
    let jobs = resolve_jobs jobs in
    let fail_policy = resolve_fail_policy fail_policy in
    let config =
      {
        Serve.Server.socket_path = socket;
        http_port;
        catalog_dir;
        jobs;
        max_active;
        max_queue;
        default_timeout_ms = timeout;
        default_fail_policy = fail_policy;
        drain_ms = drain;
        watch;
        watch_interval_ms = watch_interval;
      }
    in
    or_die (Serve.Server.run config);
    dump_metrics_if metrics
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived query daemon: load the catalog once, keep its \
          caches warm, admit concurrent clients onto a shared worker pool \
          and stream each file's answer rows while later files are still \
          scanning.  Speaks newline-delimited JSON over a Unix-domain \
          socket (and optionally HTTP).  With $(b,--watch) a background \
          watcher ingests source changes continuously; queries always \
          read a pinned catalog generation.  SIGINT/SIGTERM drain \
          in-flight requests before exiting.")
    Term.(
      const run $ catalog_dir_arg $ socket_arg $ http_port $ jobs_arg
      $ max_active $ max_queue $ timeout $ fail_policy_arg $ drain $ watch
      $ watch_interval $ faults_arg $ metrics_arg $ qlog_arg
      $ slow_query_arg)

let watch_cmd =
  let interval =
    let doc = "Poll interval in milliseconds." in
    Arg.(value & opt float 500. & info [ "interval-ms" ] ~docv:"MS" ~doc)
  in
  let scans =
    let doc =
      "Run $(docv) synchronous scan passes and exit instead of watching \
       until interrupted (deterministic; for scripting and tests)."
    in
    Arg.(value & opt (some int) None & info [ "scans" ] ~docv:"N" ~doc)
  in
  let run dir interval scans faults metrics qlog slow_ms =
    install_faults faults;
    install_qlog ?slow_ms qlog;
    let cat = open_catalog dir in
    let print_event = function
      | Oqf_catalog.Watch.Refreshed (src, outcome) ->
          Format.printf "%s: %a@." src Oqf_catalog.Catalog.pp_refresh outcome
      | Oqf_catalog.Watch.Failed (src, msg) ->
          Format.printf "%s: failed: %s@." src msg
      | Oqf_catalog.Watch.Skipped src ->
          Format.printf "%s: skipped (breaker open)@." src
    in
    (match scans with
    | Some n ->
        for i = 1 to n do
          let r = Oqf_catalog.Watch.scan ~on_event:print_event cat in
          Format.printf
            "-- scan %d: scanned=%d refreshed=%d failed=%d skipped=%d \
             retired=%d generation=%d@."
            i r.Oqf_catalog.Watch.scanned r.refreshed r.failed r.skipped
            (List.length r.retired) r.generation
        done
    | None ->
        let w =
          Oqf_catalog.Watch.start ~interval_ms:interval ~on_event:print_event
            cat
        in
        Printf.printf "oqf watch: polling %s every %gms (Ctrl-C to stop)\n%!"
          dir interval;
        let stop = Atomic.make false in
        let on_signal _ = Atomic.set stop true in
        (try
           Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
           Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
         with Invalid_argument _ -> ());
        while not (Atomic.get stop) do
          Unix.sleepf 0.1
        done;
        Oqf_catalog.Watch.stop w;
        Printf.printf "oqf watch: stopped at generation %d\n%!"
          (Oqf_catalog.Catalog.generation cat));
    dump_metrics_if metrics
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Watch every catalogued source for changes and ingest them \
          continuously: each poll refreshes the entries whose files \
          changed (committing a new catalog generation) and retires \
          generations no query pins any more.  $(b,--scans) runs a fixed \
          number of synchronous passes instead of polling forever.")
    Term.(
      const run $ catalog_dir_arg $ interval $ scans $ faults_arg
      $ metrics_arg $ qlog_arg $ slow_query_arg)

let client_cmd =
  let op_arg =
    let doc =
      "Operation: $(b,ping), $(b,query), $(b,rexpr), $(b,stats) or \
       $(b,shutdown)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let text_arg =
    let doc = "The query (for $(b,query)) or region expression (for \
               $(b,rexpr))." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"TEXT" ~doc)
  in
  let schema_opt =
    let doc = "Structuring schema of the corpus to query." in
    Arg.(value & opt (some string) None & info [ "s"; "schema" ] ~doc)
  in
  let timeout =
    let doc = "Per-file deadline in milliseconds." in
    Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let connect_wait =
    let doc =
      "Keep retrying the connection for $(docv) ms before failing — covers \
       racing a daemon that is still starting."
    in
    Arg.(value & opt float 2000. & info [ "connect-wait-ms" ] ~docv:"MS" ~doc)
  in
  let fail_policy_opt =
    let doc = "Per-request failure policy (defaults to the server's)." in
    Arg.(
      value
      & opt (some string) None
      & info [ "fail-policy" ] ~docv:"POLICY" ~doc)
  in
  let run socket op text schema timeout fail_policy force connect_wait
      workload =
    let conn = or_die (Serve.Client.connect ~wait_ms:connect_wait socket) in
    let query_req () =
      let schema =
        match schema with
        | Some s -> s
        | None -> or_die (Error "missing --schema")
      in
      let text =
        match text with
        | Some t -> t
        | None -> or_die (Error ("missing " ^ op ^ " text argument"))
      in
      {
        Serve.Protocol.schema;
        text;
        timeout_ms = timeout;
        fail_policy =
          Option.map
            (fun p -> or_die (Exec.Driver.fail_policy_of_string p))
            fail_policy;
        force;
        workload;
      }
    in
    let req =
      match op with
      | "ping" -> Serve.Protocol.Ping
      | "stats" -> Serve.Protocol.Stats
      | "shutdown" -> Serve.Protocol.Shutdown
      | "query" -> Serve.Protocol.Query (query_req ())
      | "rexpr" -> Serve.Protocol.Rexpr (query_req ())
      | op -> or_die (Error (Printf.sprintf "unknown operation %S" op))
    in
    let rows = ref 0 in
    let failed = ref false in
    let on_event (ev : Serve.Protocol.response) =
      match ev with
      | Serve.Protocol.Row { file; values; _ } ->
          incr rows;
          Printf.printf "%s: %s\n" file (String.concat " | " values)
      | Serve.Protocol.Region { file; start; stop; _ } ->
          incr rows;
          Printf.printf "%s: [%d,%d]\n" file start stop
      | Serve.Protocol.Done { rows; cached; degraded; _ } ->
          List.iter
            (fun (file, action, detail) ->
              Printf.eprintf "oqf: degraded %s: %s: %s\n" file action detail)
            degraded;
          Printf.printf "-- %d %s%s\n" rows
            (if op = "rexpr" then "regions" else "rows")
            (if cached then " (cached)" else "")
      | Serve.Protocol.Diagnostics { diagnostics; _ } ->
          List.iter
            (fun d -> print_endline (Obs.Jsonx.to_string d))
            diagnostics;
          failed := true
      | Serve.Protocol.Overloaded { active; queued; _ } ->
          Printf.eprintf "oqf: overloaded (active=%d queued=%d)\n" active
            queued;
          failed := true
      | Serve.Protocol.Failed { message; _ } ->
          Printf.eprintf "oqf: %s\n" message;
          failed := true
      | Serve.Protocol.Pong _ -> print_endline "pong"
      | Serve.Protocol.Stats_reply { payload; _ } ->
          print_endline (Obs.Jsonx.to_string payload)
      | Serve.Protocol.Bye _ -> print_endline "bye"
    in
    (match Serve.Client.stream conn req ~on_event with
    | Ok _ -> ()
    | Error e ->
        Serve.Client.close conn;
        or_die (Error e));
    Serve.Client.close conn;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running $(b,oqf serve) daemon: ping it, stream a query \
          or region expression, read its metrics, or ask it to shut down.")
    Term.(
      const run $ socket_arg $ op_arg $ text_arg $ schema_opt $ timeout
      $ fail_policy_opt $ force_arg $ connect_wait $ workload_arg)

(* --- stats: aggregate a query log ---------------------------------- *)

let stats_cmd =
  let files_arg =
    let doc =
      "Query log file(s) to aggregate — pass the current segment and any \
       rotated $(b,.1)/$(b,.2)… siblings together for full history."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"QLOG" ~doc)
  in
  let top_arg =
    let doc = "How many queries in each top-N list." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run files top format slow_ms =
    let format = resolve_format format in
    let stats = or_die (Obs.Qstats.of_files ~top ?slow_ms files) in
    match format with
    | `Text -> Format.printf "%a" Obs.Qstats.pp stats
    | `Json -> print_endline (Obs.Jsonx.to_string (Obs.Qstats.to_json stats))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Aggregate a query log ($(b,--qlog)) into per-workload \
          p50/p95/p99 latency, cache-hit and degradation trends, and the \
          top-N queries by frequency and total latency — the replay \
          input for index advice.")
    Term.(const run $ files_arg $ top_arg $ format_arg $ slow_query_arg)

(* --- metrics: exposition from a process or a live daemon ----------- *)

let metrics_cmd =
  let dump =
    let run () = print_string (Obs.Expo.render ()) in
    Cmd.v
      (Cmd.info "dump"
         ~doc:
           "Print this process's metrics registry in Prometheus text \
            exposition format (the same rendering the serve daemon's \
            $(b,/metrics) endpoint returns).")
      Term.(const run $ const ())
  in
  let scrape =
    let port_arg =
      let doc = "HTTP port of the daemon ($(b,oqf serve --http) PORT)." in
      Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
    in
    let validate_arg =
      let doc =
        "Validate the exposition syntax instead of printing it; exits 1 \
         on the first malformed line."
      in
      Arg.(value & flag & info [ "validate" ] ~doc)
    in
    let run port validate =
      match or_die (Serve.Client.http_get ~port "/metrics") with
      | 200, body ->
          if validate then begin
            or_die (Obs.Expo.validate body);
            Printf.printf "metrics: %d lines, exposition syntax ok\n"
              (List.length
                 (List.filter
                    (fun l -> String.trim l <> "")
                    (String.split_on_char '\n' body)))
          end
          else print_string body
      | code, body ->
          or_die
            (Error (Printf.sprintf "GET /metrics: HTTP %d: %s" code body))
    in
    Cmd.v
      (Cmd.info "scrape"
         ~doc:
           "Fetch $(b,/metrics) from a live $(b,oqf serve --http) daemon \
            and print it, or $(b,--validate) its exposition syntax (the \
            CI serve-suite gate).")
      Term.(const run $ port_arg $ validate_arg)
  in
  Cmd.group
    (Cmd.info "metrics"
       ~doc:"Prometheus-format metrics: dump this process's registry or \
             scrape a live daemon.")
    [ dump; scrape ]

let () =
  let info =
    Cmd.info "oqf" ~version:"1.0.0"
      ~doc:"Optimizing queries on files: database queries over indexed text."
  in
  let group =
    Cmd.group info
      [
        generate_cmd; index_cmd; query_cmd; explain_cmd; check_cmd;
        advise_cmd; schema_cmd; rexpr_cmd; tree_cmd; catalog_cmd; batch_cmd;
        serve_cmd; watch_cmd; client_cmd; stats_cmd; metrics_cmd;
      ]
  in
  (* [~catch:false] so engine exceptions become one-line errors with
     exit 1, not a backtrace with Cmdliner's exit 125 *)
  exit
    (match Cmd.eval ~catch:false group with
    | code -> code
    | exception Ralg.Eval.Unknown_region n ->
        prerr_endline ("oqf: unknown region name: " ^ n);
        1
    | exception Sys_error msg ->
        prerr_endline ("oqf: " ^ msg);
        1
    | exception (Stdx.Fault.Injected _ as e) ->
        prerr_endline ("oqf: " ^ Printexc.to_string e);
        1)
