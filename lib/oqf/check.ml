module D = Analysis.Diagnostic

type checked = {
  plan : Plan.t option;
  diagnostics : D.t list;
}

(* ---------------- path-level analysis ---------------- *)

let rec pred_paths (p : Odb.Query.pred) =
  let module Q = Odb.Query in
  match p with
  | Q.True -> []
  | Q.Eq_const (rp, _) | Q.Contains (rp, _) | Q.Starts_with (rp, _) -> [ rp ]
  | Q.Eq_paths (a, b) -> [ a; b ]
  | Q.And (a, b) | Q.Or (a, b) -> pred_paths a @ pred_paths b
  | Q.Not p -> pred_paths p

(* A path the view's types say reaches nothing: the planner makes its
   predicate empty, and a SELECT item of it projects nothing. *)
let path_diags env ?text ~root (rp : Odb.Query.rooted_path) =
  let path = rp.Odb.Query.path in
  match Fschema.Resolver.resolve env.Compile.paths ~root path with
  | Ok _ -> []
  | Error { Fschema.Resolver.at; reason } ->
      let var = rp.Odb.Query.var in
      let shown steps =
        String.concat "." (var :: List.map (fun s -> Odb.Path.to_string [ s ]) steps)
      in
      let step = Odb.Path.to_string [ List.nth path at ] in
      let before = shown (List.filteri (fun i _ -> i < at) path) in
      let span = Option.bind text (fun text -> D.span_of_word ~text step) in
      let never why =
        D.make ?span ~subject:var ~code:"OQF005" ~severity:D.Warning
          (Printf.sprintf
             "path %s can never match: %s, so the query is empty on every \
              file conforming to the schema"
             (shown path) why)
      in
      [
        (match reason with
        | Fschema.Resolver.Unknown_attribute ->
            D.make ?span ~subject:var ~code:"OQF002" ~severity:D.Warning
              (Printf.sprintf
                 "attribute %s names no region of the schema, so the path \
                  reaches nothing"
                 step)
        | Fschema.Resolver.Past_string ->
            never (Printf.sprintf "%s is a string, which has no attribute %s" before step)
        | Fschema.Resolver.No_attribute ->
            never (Printf.sprintf "no value %s reaches has an attribute %s" before step));
      ]

(* ---------------- plan-level analysis ---------------- *)

let var_plan_diags ?text ?stats ?cost_threshold env (vp : Plan.var_plan) =
  match vp.Plan.candidates with
  | Plan.All -> []
  | Plan.Empty ->
      [
        D.make ~subject:vp.Plan.var ~code:"OQF001" ~severity:D.Error
          "the candidate set is provably empty: this query returns no rows \
           on any file conforming to the schema (Prop 3.3)";
      ]
  | Plan.Expr e ->
      List.map
        (D.with_subject vp.Plan.var)
        (Analysis.Expr_check.check ?text ?stats ?cost_threshold
           env.Compile.query_rig e)

let dedup ds =
  List.rev
    (List.fold_left (fun acc d -> if List.mem d acc then acc else d :: acc) [] ds)

let plan_diagnostics ?text ?stats ?cost_threshold env (plan : Plan.t) =
  let q = plan.Plan.query in
  let root_of var =
    List.find_map
      (fun (vp : Plan.var_plan) ->
        if vp.Plan.var = var then Some vp.Plan.root else None)
      plan.Plan.var_plans
  in
  let paths = q.Odb.Query.select @ pred_paths q.Odb.Query.where in
  let path_level =
    List.concat_map
      (fun (rp : Odb.Query.rooted_path) ->
        match root_of rp.Odb.Query.var with
        | Some root -> path_diags env ?text ~root rp
        | None -> [])
      paths
  in
  (* an empty plan that a SELECT item's path accounts for is reported
     by that path's warning, not refused *)
  let plan_level =
    List.concat_map
      (fun (vp : Plan.var_plan) ->
        if Compile.empty_by_select env q ~var:vp.Plan.var ~root:vp.Plan.root
        then []
        else var_plan_diags ?text ?stats ?cost_threshold env vp)
      plan.Plan.var_plans
  in
  D.sort (dedup (path_level @ plan_level))

let query ?text ?stats ?cost_threshold env q =
  match Compile.compile env q with
  | Error e ->
      let code =
        match e with
        | Compile.Unknown_class _ -> "OQF002"
        | Compile.Invalid _ -> "OQF000"
      in
      {
        plan = None;
        diagnostics =
          [ D.make ~code ~severity:D.Error (Compile.error_message e) ];
      }
  | Ok plan ->
      {
        plan = Some plan;
        diagnostics = plan_diagnostics ?text ?stats ?cost_threshold env plan;
      }

(* ---------------- cross-query analysis ---------------- *)

let cross_query queries =
  let arr = Array.of_list queries in
  let n = Array.length arr in
  let subsumed_by i j =
    let _, qi = arr.(i) and _, qj = arr.(j) in
    Subsume.subsumes qi ~by:qj <> None
  in
  let diags = ref [] in
  for i = n - 1 downto 0 do
    (* report the first superset; when two queries subsume each other
       (duplicates up to conjunct order) only the later one is
       flagged, so at least one copy stays unannotated *)
    let found = ref false in
    for j = 0 to n - 1 do
      if
        (not !found) && i <> j
        && subsumed_by i j
        && (j < i || not (subsumed_by j i))
      then begin
        found := true;
        let label_i, _ = arr.(i) and label_j, _ = arr.(j) in
        diags :=
          D.make ~subject:label_i ~code:"OQF304" ~severity:D.Warning
            ~detail:(Printf.sprintf "superset: %s" label_j)
            "query is subsumed by another query of the batch: its rows can \
             be recovered by filtering that query's result"
          :: !diags
      end
    done
  done;
  D.sort !diags

let refusal diags =
  let errs = D.errors diags in
  let n = List.length errs in
  String.concat "\n"
    (Printf.sprintf
       "static analysis found %d error%s (use --force to execute anyway):" n
       (if n = 1 then "" else "s")
    :: List.map (fun d -> "  " ^ D.to_string d) errs)
