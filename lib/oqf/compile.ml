type env = {
  view : Fschema.View.t;
  full_rig : Ralg.Rig.t;
  index_names : string list;
  query_rig : Ralg.Rig.t;
}

let env view ~index =
  let full_rig = Fschema.Rig_of_grammar.full view.Fschema.View.grammar in
  {
    view;
    full_rig;
    index_names = index;
    query_rig = Ralg.Rig.partial full_rig ~keep:index;
  }

let indexed env n = List.mem n env.index_names
let grammar env = env.view.Fschema.View.grammar

(* ------------------------------------------------------------------ *)
(* Grammar shape analyses                                               *)

let non_literal_items items =
  List.filter
    (function
      | Fschema.Grammar.Lit _ -> false
      | Fschema.Grammar.Nonterm _ | Fschema.Grammar.Star _
      | Fschema.Grammar.Tok _ -> true)
    items

(* Follow single-child pass-through rules ([Year → "{" Year_value "}"])
   to the non-terminal whose value the name denotes. *)
let rec value_carrier env name =
  match Fschema.Grammar.rules_of (grammar env) name with
  | [ Fschema.Grammar.Seq items ] -> begin
      match non_literal_items items with
      | [ Fschema.Grammar.Nonterm n ] -> value_carrier env n
      | _ -> name
    end
  | _ -> name

(* Every rule of the name is a token rule: its text is its value. *)
let is_atomic env name =
  match Fschema.Grammar.rules_of (grammar env) name with
  | [] -> false
  | rules ->
      List.for_all
        (function Fschema.Grammar.Token _ -> true | Fschema.Grammar.Seq _ -> false)
        rules

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

(* Does the full RIG admit a walk of length exactly [len] from a to b? *)
let walk_of_length g a b len =
  if len <= 0 then a = b
  else begin
    let rec frontier nodes k =
      if k = 0 then List.mem b nodes
      else begin
        let next =
          List.sort_uniq String.compare
            (List.concat_map (fun n -> Ralg.Rig.successors g n) nodes)
        in
        next <> [] && frontier next (k - 1)
      end
    in
    frontier [ a ] len
  end

(* ------------------------------------------------------------------ *)
(* Path chains                                                          *)

type pending = { stars : int; anys : int; skipped : string list }

let no_pending = { stars = 0; anys = 0; skipped = [] }

type link = { target : string; via : pending; plus : bool }
(* chain = root, then links; [via] describes what the query path put
   between the previous indexed element and [target]; [plus] marks a
   GraphLog-style closure step ([target+]) *)

type sel = No_sel | Sel_exact of string | Sel_contains of string | Sel_prefix of string

(* Validate one step from the previous named attribute to the next,
   with [stars]/[anys] wildcards in between. *)
let step_possible env ~src ~dst ~stars ~anys =
  let g = env.full_rig in
  if stars > 0 then Ralg.Rig.reachable g src dst
  else if anys > 0 then walk_of_length g src dst (anys + 1)
  else Ralg.Rig.has_edge g src dst

(* Split a query path rooted at [root] into indexed chain links.
   Returns [None] if the path is provably impossible (Prop 3.3 applied
   to the full grammar), otherwise the links plus the trailing pending
   info past the last indexed element.  Validation is local (previous
   named attribute to next); the [via] info of a link accumulates
   everything since the previous {e indexed} element. *)
let chain_links env ~root (path : Odb.Path.t) =
  let exception Impossible in
  (* [cur]: last named node; [local_*]: wildcards since [cur];
     [pending]: accumulated since the last indexed element *)
  let rec go cur local_stars local_anys pending links = function
    | [] -> Some (List.rev links, pending)
    | Odb.Path.Star :: rest ->
        go cur (local_stars + 1) local_anys
          { pending with stars = pending.stars + 1 }
          links rest
    | Odb.Path.Any :: rest ->
        go cur local_stars (local_anys + 1)
          { pending with anys = pending.anys + 1 }
          links rest
    | Odb.Path.Attr a :: rest ->
        let known = Ralg.Rig.mem env.full_rig a in
        if
          known
          && not
               (step_possible env ~src:cur ~dst:a ~stars:local_stars
                  ~anys:local_anys)
        then raise Impossible
        else if known && indexed env a then
          go a 0 0 no_pending
            ({ target = a; via = pending; plus = false } :: links)
            rest
        else if known then
          go a 0 0
            { pending with skipped = pending.skipped @ [ a ] }
            links rest
        else begin
          (* an attribute with no named region (e.g. an anonymous token
             field): the index cannot see past it — treat as a wildcard *)
          go cur (local_stars + 1) local_anys
            { pending with stars = pending.stars + 1 }
            links rest
        end
    | Odb.Path.Plus a :: rest ->
        (* closure step: one or more [a]-attribute applications.  The
           first application is an ordinary attribute step; further
           levels behave like a wildcard for whatever follows. *)
        let known = Ralg.Rig.mem env.full_rig a in
        if
          known
          && not
               (step_possible env ~src:cur ~dst:a ~stars:local_stars
                  ~anys:local_anys)
        then raise Impossible
        else if known && indexed env a then
          go a 0 0 no_pending
            ({ target = a; via = pending; plus = true } :: links)
            rest
        else if known then
          go a 1 0
            {
              pending with
              skipped = pending.skipped @ [ a ];
              stars = pending.stars + 1;
            }
            links rest
        else
          go cur (local_stars + 1) local_anys
            { pending with stars = pending.stars + 1 }
            links rest
  in
  match go root 0 0 no_pending [] path with
  | result -> result
  | exception Impossible -> None

(* Decide the operator and exactness of one link.  The tail's result
   regions carry the link target's name; when that equals [src]
   (self-nested names) the step must use the strict operator — a path
   step always descends at least one level, while the paper's
   non-strict inclusion would let a region match itself. *)
let link_expr env ~src (link : link) tail =
  let via = link.via in
  let chain op =
    if src = link.target then Ralg.Expr.Chain_strict (Ralg.Expr.Name src, op, tail)
    else Ralg.Expr.Chain (Ralg.Expr.Name src, op, tail)
  in
  let interior_all_indexed a b =
    List.for_all (indexed env) (Ralg.Rig.interior_nodes env.full_rig a b)
  in
  if via.stars > 0 then (chain Ralg.Expr.Including, true)
  else if link.plus then begin
    (* [a+]: any-depth inclusion is exact precisely when regions of the
       target can only nest under [src] through pure target-chains *)
    let exact =
      via.anys = 0 && via.skipped = []
      && Ralg.Rig.interior_nodes env.full_rig src link.target = []
      && Ralg.Rig.interior_nodes env.full_rig link.target link.target = []
    in
    (chain Ralg.Expr.Including, exact)
  end
  else if
    via.anys > 0 && via.skipped = [] && interior_all_indexed src link.target
  then
    (* fixed-length variables: exactly [anys] indexed levels between *)
    (Ralg.Expr.At_depth (via.anys, Ralg.Expr.Name src, tail), true)
  else if via.anys > 0 then (chain Ralg.Expr.Including, false)
  else begin
    let exact =
      Exactness.link_exact ~full_rig:env.full_rig ~indexed:(indexed env) src
        link.target
    in
    (chain Ralg.Expr.Directly_including, exact)
  end

(* Build the candidate expression for one rooted path with an optional
   word selection on its final value.  Returns (expr, covered). *)
let path_expr env ~root (path : Odb.Path.t) (sel : sel) =
  match chain_links env ~root path with
  | None -> (`Empty, true)
  | Some (links, trailing) -> begin
      (* If the final query attribute is unindexed but its value carrier
         is indexed (Year is unindexed, Year_value is), extend the chain
         to the carrier: the selection can then be applied to a region
         whose text is the attribute's value. *)
      let links, trailing =
        match sel with
        | (Sel_exact _ | Sel_contains _ | Sel_prefix _)
          when trailing.stars = 0 && trailing.anys = 0 && trailing.skipped <> []
          -> begin
            let final_attr = List.nth trailing.skipped
                (List.length trailing.skipped - 1) in
            let carrier = value_carrier env final_attr in
            if indexed env carrier then
              ( links @ [ { target = carrier; via = trailing; plus = false } ],
                no_pending )
            else (links, trailing)
          end
        | _ -> (links, trailing)
      in
      (* resolve the value carrier of the last chain element when the
         selection needs the region text to equal the value *)
      let last_name =
        match List.rev links with [] -> root | l :: _ -> l.target
      in
      let trailing_unresolved =
        trailing.stars > 0 || trailing.anys > 0 || trailing.skipped <> []
      in
      (* extend through pass-through wrappers for equality selections *)
      let links, last_name =
        match sel with
        | (Sel_exact _ | Sel_prefix _)
          when (not trailing_unresolved) && not (is_atomic env last_name) -> begin
            let carrier = value_carrier env last_name in
            if carrier <> last_name && indexed env carrier then
              ( links @ [ { target = carrier; via = no_pending; plus = false } ],
                carrier )
            else (links, last_name)
          end
        | _ -> (links, last_name)
      in
      let selection, sel_covered =
        if trailing_unresolved then begin
          (* the selection applies below the last indexed element *)
          match sel with
          | No_sel -> (None, false)
          | Sel_exact w | Sel_contains w ->
              (Some (Ralg.Expr.Contains_word w), false)
          | Sel_prefix _ ->
              (* a word prefix need not occur as a whole word anywhere,
                 so no containment approximation is sound *)
              (None, false)
        end
        else begin
          match sel with
          | No_sel -> (None, true)
          | Sel_exact w ->
              if is_atomic env last_name then
                (Some (Ralg.Expr.Exactly_word w), true)
              else (Some (Ralg.Expr.Contains_word w), false)
          | Sel_prefix w ->
              if is_atomic env last_name then
                (Some (Ralg.Expr.Prefix_word w), true)
              else (None, false)
          | Sel_contains w ->
              ( Some (Ralg.Expr.Contains_word w),
                word_containment_exact env last_name w )
        end
      in
      (* assemble right-grouped chain *)
      let rec build src = function
        | [] -> assert false
        | [ last ] ->
            let base = Ralg.Expr.Name last.target in
            let base =
              match selection with
              | Some s -> Ralg.Expr.Select (s, base)
              | None -> base
            in
            link_expr env ~src last base
        | link :: rest ->
            let tail, ok = build link.target rest in
            let e, ok' = link_expr env ~src link tail in
            (e, ok && ok')
      in
      match links with
      | [] -> begin
          (* the path never reaches an indexed name: candidates are all
             root regions, with a containment selection if any *)
          match selection with
          | Some s ->
              (`Expr (Ralg.Expr.Select (s, Ralg.Expr.Name root)), false)
          | None -> (`Expr (Ralg.Expr.Name root), sel_covered)
        end
      | links ->
          let e, links_ok = build root links in
          (`Expr e, links_ok && sel_covered)
    end

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

let indexed_path_attrs env ~root (path : Odb.Path.t) =
  if Odb.Path.has_variables path then None
  else begin
    match chain_links env ~root path with
    | None -> None
    | Some (links, trailing) -> begin
        (* the final attribute must itself be reachable: either it is
           the last link, or it is the head of the trailing skip list
           with an indexed carrier *)
        let links =
          if trailing = no_pending then Some links
          else if trailing.stars = 0 && trailing.anys = 0 then begin
            let final_attr =
              List.nth trailing.skipped (List.length trailing.skipped - 1)
            in
            let carrier = value_carrier env final_attr in
            if indexed env carrier then
              Some (links @ [ { target = carrier; via = trailing; plus = false } ])
            else None
          end
          else None
        in
        match links with
        | None | Some [] -> None
        | Some links -> begin
            (* follow the pass-through wrapper of the last element *)
            let last = (List.hd (List.rev links)).target in
            let carrier = value_carrier env last in
            let links =
              if carrier <> last && indexed env carrier then
                links @ [ { target = carrier; via = no_pending; plus = false } ]
              else links
            in
            let final = (List.hd (List.rev links)).target in
            if is_atomic env final then
              Some (List.map (fun l -> l.target) links)
            else None
          end
      end
  end

(* §5.2 index-only projection: the path's indexed names, when it ends
   on one, crosses no unnamed attribute and every step is exact (§6.3). *)
let projection_attrs env ~root (path : Odb.Path.t) =
  match (chain_links env ~root path, indexed_path_attrs env ~root path) with
  | Some (links, trailing), Some attrs
    when trailing = no_pending && List.for_all (fun l -> l.via.stars = 0) links
    ->
      let rec exact src = function
        | [] -> true
        | a :: rest ->
            Exactness.link_exact ~full_rig:env.full_rig ~indexed:(indexed env)
              src a
            && exact a rest
      in
      if exact root attrs then Some attrs else None
  | _ -> None

let compile env (q : Odb.Query.t) =
  let module Q = Odb.Query in
  match Q.validate q with
  | Error e -> Error e
  | Ok () -> begin
      let missing =
        List.find_map
          (fun (cls, _) ->
            match Fschema.View.class_nonterm env.view cls with
            | None -> Some cls
            | Some _ -> None)
          q.Q.from_
      in
      match missing with
      | Some cls -> Error ("unknown class: " ^ cls)
      | None ->
          let var_plans =
            List.map
              (fun (cls, var) ->
                let root =
                  Option.get (Fschema.View.class_nonterm env.view cls)
                in
                if not (indexed env root) then
                  {
                    Plan.var;
                    class_name = cls;
                    root;
                    candidates = Plan.All;
                    covered = false;
                  }
                else begin
                  let cands, covered =
                    pred_candidates env ~root ~var q.Q.where
                  in
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
                let vp =
                  List.find (fun vp -> vp.Plan.var = rp.Q.var) var_plans
                in
                match vp.Plan.candidates with
                | Plan.Expr _ when exact -> begin
                    match projection_attrs env ~root:vp.Plan.root rp.Q.path with
                    | Some attrs ->
                        Plan.Project_regions { var = rp.Q.var; attrs }
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
    end
