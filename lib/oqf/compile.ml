module R = Fschema.Resolver

type env = {
  view : Fschema.View.t;
  paths : R.t;
  index_names : string list;
  query_rig : Ralg.Rig.t;
}

let env view ~index =
  let paths = R.make view.Fschema.View.grammar in
  {
    view;
    paths;
    index_names = index;
    query_rig = Ralg.Rig.partial (R.rig paths) ~keep:index;
  }

let indexed env n = List.mem n env.index_names
let grammar env = env.view.Fschema.View.grammar

(* ------------------------------------------------------------------ *)
(* Word containment over a region                                       *)

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* Whole-word containment, as the word index sees it. *)
let literal_contains_word l w =
  let n = String.length l and m = String.length w in
  let boundary i = i < 0 || i >= n || not (is_word_char l.[i]) in
  let rec go i =
    i + m <= n
    && ((String.sub l i m = w && boundary (i - 1) && boundary (i + m))
       || go (i + 1))
  in
  m > 0 && go 0

(* A literal is "safe" for word containment of [w] when it cannot make
   the region match where the value strings would not: [w] must not
   occur as a word inside it, and its edge characters must be non-word
   so no word can span a literal/token boundary. *)
let literal_safe l w =
  String.length l > 0
  && (not (is_word_char l.[0]))
  && (not (is_word_char l.[String.length l - 1]))
  && not (literal_contains_word l w)

(* Every literal reachable from [name] is safe for [w], so containment
   of [w] over the region is containment over the value's strings. *)
let word_containment_exact env name w =
  (* closure over the sub-grammar reachable from [name] *)
  let seen = Hashtbl.create 8 in
  let rec ok name =
    if Hashtbl.mem seen name then true
    else begin
      Hashtbl.replace seen name ();
      List.for_all
        (function
          | Fschema.Grammar.Token _ -> true
          | Fschema.Grammar.Seq items ->
              List.for_all
                (function
                  | Fschema.Grammar.Lit l -> literal_safe l w
                  | Fschema.Grammar.Tok _ -> true
                  | Fschema.Grammar.Nonterm n
                  | Fschema.Grammar.Star { nonterm = n; _ } -> ok n)
                items)
        (Fschema.Grammar.rules_of (grammar env) name)
    end
  in
  ok name

(* ------------------------------------------------------------------ *)
(* Path chains                                                          *)

type sel = No_sel | Sel_exact of string | Sel_contains of string | Sel_prefix of string

(* One element of a chain over the indexed names: an indexed link and
   the unindexed links the path passes through before it. *)
type hop = { target : R.link; skipped : R.link list }

(* Split resolved links at the indexed names; the unindexed links after
   the last one are returned apart. *)
let hops env links =
  let rec go acc skipped = function
    | [] -> (List.rev acc, List.rev skipped)
    | (l : R.link) :: rest ->
        if indexed env l.name then
          go ({ target = l; skipped = List.rev skipped } :: acc) [] rest
        else go acc (l :: skipped) rest
  in
  go [] [] links

(* §6.3: the partial-RIG edge (a, b) stands for exactly one full-RIG
   path whose interior avoids the indexed names. *)
let link_exact env a b =
  Ralg.Rig.count_paths_avoiding (R.rig env.paths) a b ~avoid_interior:(indexed env)
  = `One

(* The operator and exactness of one hop.  When the target's name
   equals [src] (self-nested names) the step uses the strict operator:
   a path step always descends at least one level, while the paper's
   non-strict inclusion would let a region match itself. *)
let hop_expr env ~src hop tail =
  let t = hop.target in
  let chain op =
    if src = t.name then Ralg.Expr.Chain_strict (Ralg.Expr.Name src, op, tail)
    else Ralg.Expr.Chain (Ralg.Expr.Name src, op, tail)
  in
  match t.rel with
  | R.Child when List.for_all (fun (l : R.link) -> l.rel = R.Child) hop.skipped ->
      ( chain Ralg.Expr.Directly_including,
        List.for_all (fun (l : R.link) -> l.exact) (t :: hop.skipped)
        && link_exact env src t.name )
  | R.Depth n
    when hop.skipped = []
         && List.for_all (indexed env)
              (Ralg.Rig.interior_nodes (R.rig env.paths) src t.name) ->
      (* exactly [n] indexed levels between *)
      (Ralg.Expr.At_depth (n, Ralg.Expr.Name src, tail), t.exact)
  | (R.Below | R.Closure) when hop.skipped = [] ->
      (chain Ralg.Expr.Including, t.exact)
  | _ -> (chain Ralg.Expr.Including, false)

(* Drop the pass-through carriers after the last named link when that
   link is indexed: containment and existence read the named region
   itself. *)
let without_trailing_carriers env links =
  let rec go = function
    | [] -> []
    | (l : R.link) :: rest when not l.named -> go rest
    | l :: _ as kept -> if indexed env l.name then kept else []
  in
  match go (List.rev links) with
  | [] -> links
  | kept -> List.rev kept

(* Build the candidate expression for one rooted path with an optional
   word selection on its final value.  Returns (candidates, covered). *)
let path_expr env ~root (path : Odb.Path.t) (sel : sel) =
  match R.resolve env.paths ~root path with
  | Error _ -> (`Empty, true)
  | Ok { R.links; ending } ->
      let links =
        match sel with
        | No_sel | Sel_contains _ -> without_trailing_carriers env links
        | Sel_exact _ | Sel_prefix _ -> links
      in
      let hops, tail = hops env links in
      let last =
        match List.rev hops with [] -> root | h :: _ -> h.target.R.name
      in
      (* the selection applies to the last indexed region: its value
         when only carriers lie below it, otherwise something below *)
      let resolved =
        ending <> R.Inside && List.for_all (fun (l : R.link) -> not l.named) tail
      in
      let atomic = tail = [] && ending = R.Value { atomic = true } in
      let selection, sel_covered =
        match sel with
        | No_sel -> (None, resolved)
        | (Sel_exact w | Sel_prefix w) when resolved && atomic ->
            ( Some
                (match sel with
                | Sel_prefix _ -> Ralg.Expr.Prefix_word w
                | _ -> Ralg.Expr.Exactly_word w),
              true )
        | Sel_contains w when resolved ->
            (Some (Ralg.Expr.Contains_word w), word_containment_exact env last w)
        | Sel_exact w | Sel_contains w -> (Some (Ralg.Expr.Contains_word w), false)
        | Sel_prefix _ ->
            (* a word prefix need not occur as a whole word anywhere, so
               no containment approximation is sound *)
            (None, false)
      in
      (* assemble right-grouped chain *)
      let rec build src = function
        | [] -> assert false
        | [ last ] ->
            let base = Ralg.Expr.Name last.target.R.name in
            let base =
              match selection with
              | Some s -> Ralg.Expr.Select (s, base)
              | None -> base
            in
            hop_expr env ~src last base
        | hop :: rest ->
            let tail, ok = build hop.target.R.name rest in
            let e, ok' = hop_expr env ~src hop tail in
            (e, ok && ok')
      in
      match hops with
      | [] -> begin
          (* the path never reaches an indexed name: candidates are all
             root regions, with a containment selection if any *)
          match selection with
          | Some s -> (`Expr (Ralg.Expr.Select (s, Ralg.Expr.Name root)), false)
          | None -> (`Expr (Ralg.Expr.Name root), sel_covered)
        end
      | hops ->
          let e, links_ok = build root hops in
          (`Expr e, links_ok && sel_covered)

(* ------------------------------------------------------------------ *)
(* Predicate translation (per variable)                                 *)

(* Invariant: the returned candidates are always a superset of the
   satisfying root regions; [covered = true] means equality. *)
let rec pred_candidates env ~root ~var (pred : Odb.Query.pred) =
  let module Q = Odb.Query in
  match pred with
  | Q.True -> (`All, true)
  | Q.Eq_const (rp, w) ->
      if rp.Q.var <> var then (`All, true)
      else path_expr env ~root rp.Q.path (Sel_exact w)
  | Q.Contains (rp, w) ->
      if rp.Q.var <> var then (`All, true)
      else path_expr env ~root rp.Q.path (Sel_contains w)
  | Q.Starts_with (rp, w) ->
      if rp.Q.var <> var then (`All, true)
      else path_expr env ~root rp.Q.path (Sel_prefix w)
  | Q.Eq_paths (a, b) -> begin
      (* index assist (§5.2): the satisfying objects must possess both
         paths, so intersect the unselected chains; the equality itself
         is residual *)
      let for_side (rp : Q.rooted_path) =
        if rp.Q.var <> var then (`All, true)
        else begin
          let c, _ = path_expr env ~root rp.Q.path No_sel in
          (c, false)
        end
      in
      let ca, _ = for_side a and cb, _ = for_side b in
      (and_candidates ca cb, false)
    end
  | Q.And (p, q) ->
      let ca, ea = pred_candidates env ~root ~var p in
      let cb, eb = pred_candidates env ~root ~var q in
      (and_candidates ca cb, ea && eb)
  | Q.Or (p, q) ->
      let other_var p = List.exists (fun v -> v <> var) (Q.pred_vars p) in
      let ca, ea = pred_candidates env ~root ~var p in
      let cb, eb = pred_candidates env ~root ~var q in
      if other_var p || other_var q then (`All, false)
      else (or_candidates ca cb, ea && eb)
  | Q.Not p -> begin
      (* complementing is per-variable sound only when the negated
         predicate constrains this variable alone: NOT over another
         variable's predicate says nothing about this one, and NOT over
         a mixed predicate can admit every binding of this variable *)
      let vars = Q.pred_vars p in
      if vars = [] || List.for_all (fun v -> v <> var) vars then (`All, true)
      else if List.exists (fun v -> v <> var) vars then (`All, false)
      else begin
        let c, e = pred_candidates env ~root ~var p in
        if not e then (`All, false)
        else begin
          match c with
          | `All -> (`Empty, true)
          | `Empty -> (`All, true)
          | `Expr ex ->
              ( `Expr
                  (Ralg.Expr.Setop (Ralg.Expr.Diff, Ralg.Expr.Name root, ex)),
                true )
        end
      end
    end

and and_candidates a b =
  match (a, b) with
  | `Empty, _ | _, `Empty -> `Empty
  | `All, x | x, `All -> x
  | `Expr x, `Expr y -> `Expr (Ralg.Expr.Setop (Ralg.Expr.Inter, x, y))

and or_candidates a b =
  match (a, b) with
  | `All, _ | _, `All -> `All
  | `Empty, x | x, `Empty -> x
  | `Expr x, `Expr y -> `Expr (Ralg.Expr.Setop (Ralg.Expr.Union, x, y))

(* ------------------------------------------------------------------ *)
(* Select-item planning                                                 *)

(* The indexed names of a path that descends by direct inclusion only
   and ends on an indexed region whose text is its value. *)
let value_attrs env = function
  | Ok { R.links = _ :: _ as links; ending = R.Value { atomic = true } }
    when List.for_all (fun (l : R.link) -> l.rel = R.Child) links
         && indexed env (List.nth links (List.length links - 1)).R.name ->
      Some
        (List.filter_map
           (fun (l : R.link) -> if indexed env l.name then Some l.name else None)
           links)
  | _ -> None

let indexed_path_attrs env ~root path =
  value_attrs env (R.resolve env.paths ~root path)

(* §5.2 index-only projection: the path's indexed names, when the last
   region it names is indexed and every step is exact (§6.3). *)
let projection_attrs env ~root path =
  let resolved = R.resolve env.paths ~root path in
  match (resolved, value_attrs env resolved) with
  | Ok { R.links; _ }, Some attrs
    when List.for_all (fun (l : R.link) -> l.exact) links
         && (match List.find_opt (fun (l : R.link) -> l.named) (List.rev links) with
            | Some l -> indexed env l.name
            | None -> false) ->
      let rec exact src = function
        | [] -> true
        | a :: rest -> link_exact env src a && exact a rest
      in
      if exact root attrs then Some attrs else None
  | _ -> None

type error = Unknown_class of string | Invalid of string

let error_message = function
  | Unknown_class cls -> "unknown class: " ^ cls
  | Invalid e -> e

let validate view (q : Odb.Query.t) =
  match Odb.Query.validate q with
  | Error e -> Error (Invalid e)
  | Ok () -> begin
      match
        List.find_opt
          (fun (cls, _) -> Fschema.View.class_nonterm view cls = None)
          q.Odb.Query.from_
      with
      | Some (cls, _) -> Error (Unknown_class cls)
      | None -> Ok ()
    end

let compile env (q : Odb.Query.t) =
  let module Q = Odb.Query in
  match validate env.view q with
  | Error _ as e -> e
  | Ok () ->
      let var_plans =
        List.map
          (fun (cls, var) ->
            let root = Option.get (Fschema.View.class_nonterm env.view cls) in
            if not (indexed env root) then
              { Plan.var; class_name = cls; root; candidates = Plan.All; covered = false }
            else begin
              let cands, covered = pred_candidates env ~root ~var q.Q.where in
              let candidates =
                match cands with
                | `All -> Plan.Expr (Ralg.Expr.Name root)
                | `Empty -> Plan.Empty
                | `Expr e -> Plan.Expr e
              in
              { Plan.var; class_name = cls; root; candidates; covered }
            end)
          q.Q.from_
      in
      let exact = List.for_all (fun vp -> vp.Plan.covered) var_plans in
      let select_plans =
        List.map
          (fun (rp : Q.rooted_path) ->
            let vp = List.find (fun vp -> vp.Plan.var = rp.Q.var) var_plans in
            match vp.Plan.candidates with
            | Plan.Expr _ when exact -> begin
                match projection_attrs env ~root:vp.Plan.root rp.Q.path with
                | Some attrs -> Plan.Project_regions { var = rp.Q.var; attrs }
                | None -> Plan.Materialize rp.Q.var
              end
            | _ -> Plan.Materialize rp.Q.var)
          q.Q.select
      in
      Ok
        {
          Plan.query = q;
          var_plans;
          select_plans;
          exact;
          index_names = env.index_names;
        }
