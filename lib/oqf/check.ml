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

let path_diags env ?text ~root (rp : Odb.Query.rooted_path) =
  let g = env.Compile.full_rig in
  let var = rp.Odb.Query.var in
  let span_of name =
    match text with
    | None -> None
    | Some text -> D.span_of_word ~text name
  in
  let path_str = var ^ "." ^ Odb.Path.to_string rp.Odb.Query.path in
  let rec go cur stars anys acc = function
    | [] -> List.rev acc
    | Odb.Path.Star :: rest -> go cur (stars + 1) anys acc rest
    | Odb.Path.Any :: rest -> go cur stars (anys + 1) acc rest
    | (Odb.Path.Attr a | Odb.Path.Plus a) :: rest ->
        if not (Ralg.Rig.mem g a) then begin
          let d =
            D.make ?span:(span_of a) ~subject:var ~code:"OQF002"
              ~severity:D.Warning
              (Printf.sprintf
                 "attribute %s names no region of the schema; the planner \
                  treats it as a wildcard"
                 a)
          in
          (* mirror the planner: an unknown attribute behaves like [*X] *)
          go cur (stars + 1) anys (d :: acc) rest
        end
        else if not (Compile.step_possible env ~src:cur ~dst:a ~stars ~anys)
        then begin
          let how =
            if stars > 0 then "no RIG walk"
            else if anys > 0 then
              Printf.sprintf "no RIG walk of length %d" (anys + 1)
            else "no RIG edge"
          in
          let d =
            D.make ?span:(span_of a) ~subject:var ~code:"OQF005"
              ~severity:D.Warning
              (Printf.sprintf
                 "path %s can never match: %s from %s to %s, so the query is \
                  empty on every file conforming to the schema"
                 path_str how cur a)
          in
          go a 0 0 (d :: acc) rest
        end
        else go a 0 0 acc rest
  in
  go root 0 0 [] rp.Odb.Query.path

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
  let plan_level =
    List.concat_map
      (var_plan_diags ?text ?stats ?cost_threshold env)
      plan.Plan.var_plans
  in
  D.sort (dedup (path_level @ plan_level))

let query ?text ?stats ?cost_threshold env q =
  match Compile.compile env q with
  | Error e ->
      let unknown_class =
        String.length e >= 14 && String.sub e 0 14 = "unknown class:"
      in
      let code = if unknown_class then "OQF002" else "OQF000" in
      { plan = None; diagnostics = [ D.make ~code ~severity:D.Error e ] }
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
