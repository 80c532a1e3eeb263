type origin = Memory | Disk

(* Catalog sources are built holding their manifest entry's statistics;
   the others sweep their instance the first time a run asks.  The
   sweep is published through an [Atomic] under a lock rather than a
   [Lazy.t]: serve shares sources across worker domains, and [Lazy] is
   not domain-safe. *)
type plan_stats = { value : Oqf_cost.Stats.t option Atomic.t; lock : Mutex.t }

type source = {
  view : Fschema.View.t;
  text : Pat.Text.t;
  instance : Pat.Instance.t;
  env : Compile.env;
  origin : origin;
  plan_stats : plan_stats;
}

let build ~origin view instance ~index =
  {
    view;
    text = Pat.Instance.text instance;
    instance;
    env = Compile.env view ~index;
    origin;
    plan_stats = { value = Atomic.make None; lock = Mutex.create () };
  }

let make_source ?(origin = Memory) view text ~index =
  Result.map
    (fun instance -> build ~origin view instance ~index)
    (Fschema.View.index_file view text ~keep:index)

let make_source_full view text =
  make_source view text
    ~index:(Fschema.Grammar.indexable view.Fschema.View.grammar)

let source_of_instance ?(origin = Memory) view instance =
  build ~origin view instance ~index:(Pat.Instance.names instance)

let with_stats src stats =
  {
    src with
    plan_stats = { value = Atomic.make (Some stats); lock = Mutex.create () };
  }

let stats src =
  let { value; lock } = src.plan_stats in
  match Atomic.get value with
  | Some s -> s
  | None ->
      Mutex.protect lock (fun () ->
          match Atomic.get value with
          | Some s -> s
          | None ->
              let s = Oqf_cost.Stats.of_instance src.instance in
              Atomic.set value (Some s);
              s)

type outcome = {
  rows : Odb.Query_eval.row list;
  plan : Plan.t;
  diagnostics : Analysis.Diagnostic.t list;
  evaluated : (string * Ralg.Expr.t) list;
  candidates_count : int;
  answers_count : int;
  join_assisted : bool;
  stats : Stdx.Stats.t;
  rewrites : Ralg.Optimizer.rewrite list;
  annotations : (string * Ralg.Annot.t) list;
  plan_mode : Oqf_cost.Planner.mode;
  decisions : (string * Oqf_cost.Planner.decision) list;
  est_cost : float;
}

let query_latency_ms = Obs.Metrics.histogram "query.latency_ms"
let query_answers = Obs.Metrics.histogram "query.answers"
let query_candidates = Obs.Metrics.histogram "query.candidates"

(* The unlabelled histograms above are kept as aliases (dashboards and
   the O1/obs cram expectations read them); runs against a built-in
   schema additionally record under a workload-labelled name so
   --metrics can tell corpora apart.  Labelled handles are interned per
   workload — create-or-get in the registry is mutex-protected, but
   there is no need to pay it per query. *)
let labelled_histograms =
  let table : (string, Obs.Metrics.histogram * Obs.Metrics.histogram * Obs.Metrics.histogram) Hashtbl.t =
    Hashtbl.create 8
  in
  let lock = Mutex.create () in
  fun workload ->
    Mutex.protect lock @@ fun () ->
    match Hashtbl.find_opt table workload with
    | Some hs -> hs
    | None ->
        let h suffix =
          Obs.Metrics.histogram
            (Obs.Label.render ("query." ^ suffix) [ ("workload", workload) ])
        in
        let hs = (h "latency_ms", h "answers", h "candidates") in
        Hashtbl.replace table workload hs;
        hs

let observe_query ~view ~latency_ms ~answers ~candidates =
  let obs (lat_h, ans_h, cand_h) =
    Obs.Metrics.observe lat_h latency_ms;
    Obs.Metrics.observe ans_h (float_of_int answers);
    Obs.Metrics.observe cand_h (float_of_int candidates)
  in
  obs (query_latency_ms, query_answers, query_candidates);
  match Oqf_catalog.Schemas.name_of_view view with
  | Some workload -> obs (labelled_histograms workload)
  | None -> ()

(* {!Plan.descent} over [cands]: per step, the [attr] regions directly
   inside the current ones, strictly when the names are equal. *)
let project src ~root ~attrs cands =
  let step (regions, above) attr =
    let inside =
      if attr = above then Pat.Region_set.directly_included_strict_in
      else Pat.Region_set.directly_included_in
    in
    let names = Pat.Instance.find src.instance attr in
    (inside (Pat.Instance.forest src.instance) names regions, attr)
  in
  fst (List.fold_left step (cands, root) attrs)

(* ------------------------------------------------------------------ *)
(* §5.2 join assist.

   For a top-level conjunct [v1.p1 = v2.p2], use the region index to
   project the regions of both paths out of the current candidate
   sets, read their texts, intersect the two string sets, and climb
   back from the matching regions to shrink both candidate sets.  The
   result is still a superset of the true answers (the intersection of
   supersets contains the intersection of the true value sets), so the
   phase-2 re-filter stays correct. *)

module Join_assist = struct
  module Sset = Set.Make (String)

  let conjuncts pred =
    let rec go acc = function
      | Odb.Query.And (a, b) -> go (go acc a) b
      | p -> p :: acc
    in
    go [] pred

  (* The candidates over a matching final region: the steps of
     [project] in reverse, with ⊃d. *)
  let climb src ~root ~attrs ~cands ~finals =
    let up ~above parents attr regions =
      let including =
        if attr = above then Pat.Region_set.directly_including_strict_in
        else Pat.Region_set.directly_including_in
      in
      including (Pat.Instance.forest src.instance) parents regions
    in
    let rec go above parents = function
      | [] -> parents
      | [ attr ] -> up ~above parents attr finals
      | attr :: rest ->
          up ~above parents attr
            (go attr (Pat.Instance.find src.instance attr) rest)
    in
    go root cands attrs

  let side_info src bindings (rp : Odb.Query.rooted_path) =
    match List.assoc_opt rp.Odb.Query.var bindings with
    | Some (vp, `Regions cands) -> begin
        match
          Compile.indexed_path_attrs src.env ~root:vp.Plan.root
            rp.Odb.Query.path
        with
        | Some attrs -> Some (vp, attrs, cands)
        | None -> None
      end
    | _ -> None

  (* Returns refined (var, region set) pairs for the conjunct, if the
     assist applies. *)
  let refine src bindings a b =
    match (side_info src bindings a, side_info src bindings b) with
    | Some (va, attrs_a, cands_a), Some (vb, attrs_b, cands_b) ->
        let root_a = va.Plan.root and root_b = vb.Plan.root in
        let finals_a = project src ~root:root_a ~attrs:attrs_a cands_a in
        let finals_b = project src ~root:root_b ~attrs:attrs_b cands_b in
        let texts regions =
          List.map
            (fun r -> (Pat.Region.text src.text r, r))
            (Pat.Region_set.to_list regions)
        in
        let ta = texts finals_a and tb = texts finals_b in
        let words l = Sset.of_list (List.map fst l) in
        let matched = Sset.inter (words ta) (words tb) in
        let keep l =
          Pat.Region_set.of_list
            (List.filter_map
               (fun (w, r) -> if Sset.mem w matched then Some r else None)
               l)
        in
        let refined_a =
          climb src ~root:root_a ~attrs:attrs_a ~cands:cands_a
            ~finals:(keep ta)
        in
        let refined_b =
          climb src ~root:root_b ~attrs:attrs_b ~cands:cands_b
            ~finals:(keep tb)
        in
        Some [ (va.Plan.var, refined_a); (vb.Plan.var, refined_b) ]
    | _ -> None

  (* Apply every applicable Eq_paths conjunct. *)
  let apply src (q : Odb.Query.t) bindings =
    let assisted = ref false in
    let bindings = ref bindings in
    List.iter
      (function
        | Odb.Query.Eq_paths (a, b) when a.Odb.Query.var <> b.Odb.Query.var
          -> begin
            match refine src !bindings a b with
            | Some updates ->
                assisted := true;
                bindings :=
                  List.map
                    (fun (var, (vp, c)) ->
                      match List.assoc_opt var updates with
                      | Some rs when c <> `Full_scan -> (var, (vp, `Regions rs))
                      | _ -> (var, (vp, c)))
                    !bindings
            | None -> ()
          end
        | _ -> ())
      (conjuncts q.Odb.Query.where);
    (!bindings, !assisted)
end

(* §6.2's query pushing, object-construction side: the conjuncts of the
   WHERE clause that mention only one variable can be tested on each
   candidate object as soon as it is parsed, so objects that fail them
   are never loaded into the scratch database. *)
let single_var_filter (q : Odb.Query.t) var =
  let conjuncts = Join_assist.conjuncts q.Odb.Query.where in
  let mine =
    List.filter
      (fun p ->
        match Odb.Query.pred_vars p with
        | [] -> false
        | vars -> List.for_all (String.equal var) vars)
      conjuncts
  in
  match mine with
  | [] -> fun _ -> true
  | preds ->
      fun v ->
        List.for_all (fun p -> Odb.Query_eval.matches [ (var, v) ] p) preds

(* Parse one candidate region as an occurrence of [symbol]. *)
let materialize_region src ~symbol (r : Pat.Region.t) =
  let parse () =
    match
      Fschema.Parser_engine.parse_at src.view.Fschema.View.grammar src.text
        ~symbol ~start:r.start ~stop:r.stop
    with
    | Ok tree -> Ok (Fschema.Builder.value_of_tree src.text tree)
    | Error e ->
        Error
          (Format.asprintf "candidate region %a of %s does not parse: %a"
             Pat.Region.pp r symbol Fschema.Parser_engine.pp_error e)
  in
  if not (Obs.Trace.enabled ()) then parse ()
  else begin
    let b0 = Stdx.Stats.(value bytes_parsed) in
    let span = Obs.Trace.begin_span "phase2.parse" in
    let res = parse () in
    Obs.Trace.end_span span
      ~attrs:
        [
          ("symbol", Obs.Trace.Str symbol);
          ("start", Obs.Trace.Int r.start);
          ("stop", Obs.Trace.Int r.stop);
          ("bytes_parsed", Obs.Trace.Int (Stdx.Stats.(value bytes_parsed) - b0));
          ("ok", Obs.Trace.Bool (Result.is_ok res));
        ];
    res
  end

(* A candidate expression as prepared: the minimize and rules rewrites
   already applied, and what is left to each file — nothing, or a pick
   among its Prop 3.5 candidates by the file's statistics. *)
type choice = Fixed of Ralg.Expr.t | Priced of Oqf_cost.Planner.candidates

type prepared = {
  query : Odb.Query.t;
  plan : Plan.t;
  diagnostics : Analysis.Diagnostic.t list;
  plan_mode : Oqf_cost.Planner.mode;
  vars : (Plan.var_plan * (Ralg.Optimizer.rewrite list * choice) option) list;
      (* [None] unless an expression Ralg.Trivial cannot prove empty *)
}

let prepare ?(optimize = true) ?(force = false)
    ?(plan_mode = Oqf_cost.Planner.Rules) src (q : Odb.Query.t) =
  let minimize = plan_mode = Oqf_cost.Planner.Cost_based in
  let rig = src.env.Compile.query_rig in
  match Obs.Trace.with_span "query.compile" (fun () -> Compile.compile src.env q) with
  | Error _ as e -> e
  | Ok plan ->
      let diagnostics =
        Obs.Trace.with_span "query.analyze" @@ fun () ->
        (* the checker prices expressions with the model the cost
           planner minimizes, so OQF006 and plan selection can never
           disagree about a query's estimated cost *)
        Check.plan_diagnostics ~text:(Odb.Query.to_string q)
          ~stats:(stats src) src.env plan
      in
      if (not force) && Analysis.Diagnostic.has_errors diagnostics then
        Error (Check.refusal diagnostics)
      else
        Obs.Trace.with_span "query.plan" @@ fun () ->
        let plan_expr e =
          (* containment-based minimization runs before planning:
             dropped conjuncts never reach the plan enumerator, and the
             rewrite log records the substitution like any other rule *)
          let e' = if minimize then Analysis.Contain.minimize rig e else e in
          let logged =
            if (not minimize) || Ralg.Expr.equal e' e then []
            else
              let detail =
                Printf.sprintf "%s => %s" (Ralg.Expr.to_string e)
                  (Ralg.Expr.to_string e')
              in
              [ { Ralg.Optimizer.rule = "minimize"; detail } ]
          in
          match plan_mode with
          | _ when not optimize -> (logged, Fixed e')
          | Oqf_cost.Planner.Rules ->
              let rewritten, rws = Ralg.Optimizer.optimize_logged rig e' in
              (logged @ rws, Fixed rewritten)
          | Oqf_cost.Planner.Cost_based ->
              (logged, Priced (Oqf_cost.Planner.candidates ~rig e'))
        in
        let vars =
          List.map
            (fun (vp : Plan.var_plan) ->
              match vp.Plan.candidates with
              | Plan.Expr e when not (Ralg.Trivial.check rig e) ->
                  (vp, Some (plan_expr e))
              | _ -> (vp, None))
            plan.Plan.var_plans
        in
        Ok { query = q; plan; diagnostics; plan_mode; vars }

let exec ?(join_assist = true) ?(explain = false) p src =
  let q = p.query and plan = p.plan in
  let before = Stdx.Stats.snapshot () in
  let t0 = Obs.Trace.now_ms () in
  let root =
    if Obs.Trace.enabled () then Obs.Trace.begin_span "query.run"
    else Obs.Trace.null
  in
  let finish result =
    let latency_ms = Obs.Trace.now_ms () -. t0 in
    (match result with
    | Ok o ->
        observe_query ~view:src.view ~latency_ms ~answers:o.answers_count
          ~candidates:o.candidates_count;
        if Obs.Trace.enabled () then
          Obs.Trace.end_span root
            ~attrs:
              [
                ("answers", Obs.Trace.Int o.answers_count);
                ("candidates", Obs.Trace.Int o.candidates_count);
                ("join_assisted", Obs.Trace.Bool o.join_assisted);
              ]
    | Error e ->
        Obs.Metrics.observe query_latency_ms latency_ms;
        if Obs.Trace.enabled () then
          Obs.Trace.end_span root ~attrs:[ ("error", Obs.Trace.Str e) ]);
    result
  in
  finish
  @@
  let rewrites = ref [] in
  let annots = ref [] in
  let decisions = ref [] in
  let evaluated = ref [] in
  let choose label (logged, choice) =
    rewrites := !rewrites @ logged;
    let e =
      match choice with
      | Fixed e -> e
      | Priced candidates ->
          let d = Oqf_cost.Planner.choose ~stats:(stats src) candidates in
          rewrites := !rewrites @ d.Oqf_cost.Planner.rewrites;
          decisions := (label, d) :: !decisions;
          d.Oqf_cost.Planner.chosen
    in
    evaluated := (label, e) :: !evaluated;
    e
  in
  let eval_candidates label e =
    if explain then begin
      let r, a = Ralg.Eval.eval_shared_annotated src.instance e in
      annots := (label, a) :: !annots;
      r
    end
    else Ralg.Eval.eval_shared src.instance e
  in
  let exception Fail of string in
  try
    (* phase 1: candidate regions per variable *)
    let candidates =
      Obs.Trace.with_span "query.phase1" @@ fun () ->
      List.map
        (fun ((vp : Plan.var_plan), planned) ->
          match (vp.Plan.candidates, planned) with
          | Plan.All, _ -> (vp, `Full_scan)
          | Plan.Expr e, None ->
              (* Ralg.Trivial proved it empty: reported, not evaluated *)
              evaluated := (vp.Plan.var, e) :: !evaluated;
              (vp, `Regions Pat.Region_set.empty)
          | Plan.Expr _, Some planned ->
              let e = choose vp.Plan.var planned in
              ( vp,
                `Regions
                  (Obs.Trace.with_span ("phase1." ^ vp.Plan.var) (fun () ->
                       eval_candidates vp.Plan.var e)) )
          | Plan.Empty, _ -> (vp, `Regions Pat.Region_set.empty))
        p.vars
    in
    (* §5.2 index-assisted join refinement *)
    let candidates, join_assisted =
      if not join_assist then (candidates, false)
      else begin
        Obs.Trace.with_span "query.join_assist" @@ fun () ->
        let bindings =
          List.map
            (fun ((vp : Plan.var_plan), c) -> (vp.Plan.var, (vp, c)))
            candidates
        in
        let bindings, assisted = Join_assist.apply src q bindings in
        (List.map snd bindings, assisted)
      end
    in
    let candidates_count =
      List.fold_left
        (fun acc (_, c) ->
          match c with
          | `Regions rs -> acc + Pat.Region_set.cardinal rs
          | `Full_scan -> acc)
        0 candidates
    in
    (* an exact plan's single projected item is read off the regions its
       variable's candidates descend to *)
    let projection =
      match plan.Plan.select_plans with
      | [ Plan.Project_regions { var; attrs } ] ->
          List.find_map
            (function
              | (vp : Plan.var_plan), `Regions cands when vp.Plan.var = var ->
                  Some (vp, attrs, cands)
              | _ -> None)
            candidates
      | _ -> None
    in
    let rows =
      Obs.Trace.with_span "query.phase2" @@ fun () ->
      match projection with
      | Some (vp, attrs, cands) ->
          let root = vp.Plan.root in
          let regions =
            if not explain then project src ~root ~attrs cands
            else begin
              (* the same steps, as a chain over the candidates *)
              let base = List.assoc vp.Plan.var !evaluated in
              let r, a =
                Ralg.Eval.eval_annotated_from src.instance (base, cands)
                  (Plan.descent ~root ~attrs base)
              in
              annots := ("<select>", a) :: !annots;
              r
            end
          in
          List.sort_uniq (List.compare Odb.Value.compare_normalized)
            (List.map
               (fun r -> [ Odb.Value.Str (Pat.Region.text src.text r) ])
               (Pat.Region_set.to_list regions))
      | None ->
          (* phase 2: materialise candidates into a scratch database,
             pushing single-variable conjuncts into the load (§6.2).
             Each variable gets its own scratch extent: two variables
             over the same class have different candidate sets, and
             sharing one extent would cross-contaminate them. *)
          let scratch_class (vp : Plan.var_plan) =
            vp.Plan.class_name ^ "/" ^ vp.Plan.var
          in
          let db = Odb.Database.create () in
          List.iter
            (fun ((vp : Plan.var_plan), c) ->
              let keep =
                if plan.Plan.exact then fun _ -> true
                else single_var_filter q vp.Plan.var
              in
              match c with
              | `Regions rs ->
                  Pat.Region_set.iter
                    (fun r ->
                      match
                        materialize_region src ~symbol:vp.Plan.root r
                      with
                      | Ok v ->
                          if keep v then
                            Odb.Database.insert db
                              ~class_name:(scratch_class vp) v
                      | Error e -> raise (Fail e))
                    rs
              | `Full_scan -> begin
                  (* no index support: parse the whole file *)
                  match Fschema.View.load_file src.view src.text with
                  | Ok full ->
                      Odb.Database.insert_all db
                        ~class_name:(scratch_class vp)
                        (Odb.Database.extent full vp.Plan.class_name)
                  | Error e -> raise (Fail e)
                end)
            candidates;
          let residual_query =
            {
              q with
              Odb.Query.from_ =
                List.map
                  (fun (_, v) ->
                    let vp =
                      List.find
                        (fun ((vp : Plan.var_plan), _) -> vp.Plan.var = v)
                        candidates
                      |> fst
                    in
                    (scratch_class vp, v))
                  q.Odb.Query.from_;
              where =
                (if plan.Plan.exact then Odb.Query.True else q.Odb.Query.where);
            }
          in
          Odb.Query_eval.eval db residual_query
    in
    let after = Stdx.Stats.snapshot () in
    Ok
      {
        rows;
        plan;
        diagnostics = p.diagnostics;
        evaluated = List.rev !evaluated;
        candidates_count;
        answers_count = List.length rows;
        join_assisted;
        stats = Stdx.Stats.diff ~before ~after;
        rewrites = !rewrites;
        annotations = List.rev !annots;
        plan_mode = p.plan_mode;
        decisions = List.rev !decisions;
        est_cost =
          List.fold_left
            (fun acc (_, (d : Oqf_cost.Planner.decision)) ->
              acc +. d.est.Oqf_cost.Model.cost)
            0.0 !decisions;
      }
  with Fail e -> Error e

let run ?optimize ?join_assist ?explain ?force ?plan_mode src q =
  Result.bind
    (prepare ?optimize ?force ?plan_mode src q)
    (fun p -> exec ?join_assist ?explain p src)

(* A query-level defect: the query would fail identically on every
   file, so degradation must surface it instead of excluding files. *)
let semantic_error view (q : Odb.Query.t) =
  let unknown =
    List.find_map
      (fun (cls, _) ->
        match Fschema.View.class_nonterm view cls with
        | None -> Some cls
        | Some _ -> None)
      q.Odb.Query.from_
  in
  match (Odb.Query.validate q, unknown) with
  | Error e, _ -> Some e
  | Ok (), Some cls -> Some ("unknown class: " ^ cls)
  | Ok (), None -> None

let run_baseline view text q =
  let before = Stdx.Stats.snapshot () in
  (* mirror the planner's validation: the baseline must reject a query
     it cannot answer, not return an empty extent with exit 0 *)
  match semantic_error view q with
  | Some e -> Error e
  | None -> begin
      match Fschema.View.load_file view text with
      | Error e -> Error e
      | Ok db ->
          let rows = Odb.Query_eval.eval db q in
          let after = Stdx.Stats.snapshot () in
          Ok (rows, Stdx.Stats.diff ~before ~after)
    end

let fallback_naive = Obs.Metrics.counter "fallback.naive"

(* The §3.1 degradation fallback: answer from the raw file, no index.
   Disk-backed sources are re-read (their in-memory text came from a
   possibly-damaged index); a source that cannot be read any more has
   no remaining path to its data. *)
let run_naive ~file src q =
  let text =
    match src.origin with
    | Memory -> Ok src.text
    | Disk ->
        if not (Sys.file_exists file) then
          Error (file ^ ": source file is unreadable")
        else begin
          match Pat.Text.of_file file with
          | text -> Ok text
          | exception Sys_error e -> Error e
          | exception Stdx.Fault.Injected _ ->
              Error (file ^ ": source file is unreadable")
        end
  in
  match text with
  | Error _ as e -> e
  | Ok text -> begin
      match run_baseline src.view text q with
      | Error _ as e -> e
      | Ok (rows, _stats) ->
          Obs.Metrics.incr fallback_naive;
          if Obs.Trace.enabled () then
            Obs.Trace.instant "fallback.naive"
              ~attrs:[ ("file", Obs.Trace.Str file) ];
          Ok rows
    end
