exception Unknown_region of string

module Rs = Pat.Region_set

let operands = function
  | Expr.Name _ -> []
  | Expr.Select (_, e) | Expr.Innermost e | Expr.Outermost e -> [ e ]
  | Expr.Setop (_, a, b)
  | Expr.Chain (a, _, b)
  | Expr.Chain_strict (a, _, b)
  | Expr.At_depth (_, a, b) ->
      [ a; b ]

(* One operator application over already-evaluated operands — the one
   place the evaluators call into Pat.Region_set and Pat.Word_index.
   It polls the deadline once per operator: a pooled task with a
   budget aborts at the next operator boundary (see Obs.Deadline). *)
let apply inst expr children =
  Obs.Deadline.check ();
  let forest () = Pat.Instance.forest inst in
  match (expr, children) with
  | Expr.Name n, [] -> begin
      match Pat.Instance.find_opt inst n with
      | Some set -> set
      | None -> raise (Unknown_region n)
    end
  | Expr.Select (Expr.Contains_word w, _), [ r ] ->
      Pat.Word_index.select_containing (Pat.Instance.word_index inst) w r
  | Expr.Select (Expr.Exactly_word w, _), [ r ] ->
      Pat.Word_index.select_exact (Pat.Instance.word_index inst) w r
  | Expr.Select (Expr.Prefix_word w, _), [ r ] ->
      Pat.Word_index.select_prefix (Pat.Instance.word_index inst) w r
  | Expr.Setop (Expr.Union, _, _), [ a; b ] -> Rs.union a b
  | Expr.Setop (Expr.Inter, _, _), [ a; b ] -> Rs.inter a b
  | Expr.Setop (Expr.Diff, _, _), [ a; b ] -> Rs.diff a b
  | Expr.Innermost _, [ r ] -> Rs.innermost r
  | Expr.Outermost _, [ r ] -> Rs.outermost r
  | Expr.Chain (_, op, _), [ a; b ] -> begin
      match op with
      | Expr.Including -> Rs.including a b
      | Expr.Included -> Rs.included a b
      | Expr.Directly_including -> Rs.directly_including_in (forest ()) a b
      | Expr.Directly_included -> Rs.directly_included_in (forest ()) a b
    end
  | Expr.Chain_strict (_, op, _), [ a; b ] -> begin
      match op with
      | Expr.Including -> Rs.including_strict a b
      | Expr.Included -> Rs.included_strict a b
      | Expr.Directly_including ->
          Rs.directly_including_strict_in (forest ()) a b
      | Expr.Directly_included ->
          Rs.directly_included_strict_in (forest ()) a b
    end
  | Expr.At_depth (n, _, _), [ a; b ] ->
      Rs.including_at_depth_in (forest ()) ~depth:n a b
  | _ -> invalid_arg "Eval.apply: operator/operand arity mismatch"

let recall memo expr =
  match memo with Some tbl -> Hashtbl.find_opt tbl expr | None -> None

let remember memo expr r =
  match memo with Some tbl -> Hashtbl.replace tbl expr r | None -> ()

(* The hot path: operands left to right, then [apply], with no
   instrumentation beyond the counters inside Pat.Region_set.  With a
   [memo] table each distinct subexpression is evaluated once (§5.2).
   The public [eval]/[eval_shared] route through the annotated
   observer below only when a trace sink is installed, so the
   disabled-tracing cost is one load and branch per evaluation. *)
let eval_with ~memo inst expr =
  let rec go expr =
    match recall memo expr with
    | Some r -> r
    | None ->
        let r = apply inst expr (List.map go (operands expr)) in
        remember memo expr r;
        r
  in
  go expr

let eval_plain inst expr = eval_with ~memo:None inst expr

let eval_shared_plain inst expr =
  eval_with ~memo:(Some (Hashtbl.create 16)) inst expr

let counters_now () =
  Stdx.Stats.
    ( value index_ops,
      value region_comparisons,
      value word_lookups,
      value regions_produced )

let annotate inst ~memo expr =
  let traced = Obs.Trace.enabled () in
  let rec go expr =
    match recall memo expr with
    | Some r ->
        let node =
          {
            Annot.expr;
            label = Expr.node_label expr;
            out_card = Rs.cardinal r;
            self_ops = 0;
            self_cmps = 0;
            self_lookups = 0;
            self_regions = 0;
            duration_ms = 0.;
            cached = true;
            children = [];
          }
        in
        (r, node)
    | None ->
        let span =
          if traced then Obs.Trace.begin_span ("eval." ^ Expr.node_label expr)
          else Obs.Trace.null
        in
        let children = List.map go (operands expr) in
        let t0 = Obs.Trace.now_ms () in
        let o0, c0, w0, r0 = counters_now () in
        let result = apply inst expr (List.map fst children) in
        let o1, c1, w1, r1 = counters_now () in
        let t1 = Obs.Trace.now_ms () in
        let node =
          {
            Annot.expr;
            label = Expr.node_label expr;
            out_card = Rs.cardinal result;
            self_ops = o1 - o0;
            self_cmps = c1 - c0;
            self_lookups = w1 - w0;
            self_regions = r1 - r0;
            duration_ms = t1 -. t0;
            cached = false;
            children = List.map snd children;
          }
        in
        if traced then
          Obs.Trace.end_span span
            ~attrs:
              [
                ("out", Obs.Trace.Int node.Annot.out_card);
                ("self_ops", Obs.Trace.Int node.Annot.self_ops);
                ("self_cmps", Obs.Trace.Int node.Annot.self_cmps);
              ];
        remember memo expr result;
        (result, node)
  in
  go expr

let eval_annotated inst expr = annotate inst ~memo:None expr

let eval_shared_annotated inst expr =
  annotate inst ~memo:(Some (Hashtbl.create 16)) expr

let eval_annotated_from inst (known, r) expr =
  let memo = Hashtbl.create 16 in
  Hashtbl.replace memo known r;
  annotate inst ~memo:(Some memo) expr

let eval inst expr =
  if Obs.Trace.enabled () then fst (eval_annotated inst expr)
  else eval_plain inst expr

let eval_shared inst expr =
  if Obs.Trace.enabled () then fst (eval_shared_annotated inst expr)
  else eval_shared_plain inst expr
