type candidates = All | Empty | Expr of Ralg.Expr.t

type var_plan = {
  var : string;
  class_name : string;
  root : string;
  candidates : candidates;
  covered : bool;
}

type select_plan =
  | Materialize of string
  | Project_regions of { var : string; attrs : string list }

type t = {
  query : Odb.Query.t;
  var_plans : var_plan list;
  select_plans : select_plan list;
  exact : bool;
  index_names : string list;
}

let descent ~root ~attrs base =
  let step (e, above) a =
    let n = Ralg.Expr.Name a and op = Ralg.Expr.Directly_included in
    ( (if a = above then Ralg.Expr.Chain_strict (n, op, e)
       else Ralg.Expr.Chain (n, op, e)),
      a )
  in
  fst (List.fold_left step (base, root) attrs)

let pp_candidates ppf = function
  | All -> Format.pp_print_string ppf "<all regions / full parse>"
  | Empty -> Format.pp_print_string ppf "<provably empty>"
  | Expr e -> Ralg.Expr.pp ppf e

let pp ppf t =
  Format.fprintf ppf "@[<v>query: %a@," Odb.Query.pp t.query;
  Format.fprintf ppf "indices: %s@," (String.concat ", " t.index_names);
  List.iter
    (fun vp ->
      Format.fprintf ppf "var %s (%s as %s): %a%s@," vp.var vp.class_name
        vp.root pp_candidates vp.candidates
        (if vp.covered then " [exact]" else " [superset]"))
    t.var_plans;
  List.iter
    (fun sp ->
      match sp with
      | Materialize v -> Format.fprintf ppf "select: materialize %s@," v
      | Project_regions { var; attrs } ->
          let vp = List.find (fun vp -> vp.var = var) t.var_plans in
          Format.fprintf ppf "select: project regions %a@," Ralg.Expr.pp
            (descent ~root:vp.root ~attrs (Ralg.Expr.Name var)))
    t.select_plans;
  Format.fprintf ppf "phase 2: %s@]"
    (if t.exact then "materialize only (no re-filtering)"
     else "parse candidates and re-filter")
