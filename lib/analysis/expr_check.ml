module Expr = Ralg.Expr

let rec trivial_subexprs rig e =
  if Ralg.Trivial.check rig e then [ e ]
  else begin
    match e with
    | Expr.Name _ -> []
    | Expr.Select (_, e1) | Expr.Innermost e1 | Expr.Outermost e1 ->
        trivial_subexprs rig e1
    | Expr.Setop (_, a, b)
    | Expr.Chain (a, _, b)
    | Expr.Chain_strict (a, _, b)
    | Expr.At_depth (_, a, b) ->
        trivial_subexprs rig a @ trivial_subexprs rig b
  end

let family_strength = function
  | Expr.Including -> (Ralg.Chain.Up, Ralg.Chain.Simple)
  | Expr.Directly_including -> (Ralg.Chain.Up, Ralg.Chain.Direct)
  | Expr.Included -> (Ralg.Chain.Down, Ralg.Chain.Simple)
  | Expr.Directly_included -> (Ralg.Chain.Down, Ralg.Chain.Direct)

let rec witness_pair rig e =
  let first_of a b =
    match witness_pair rig a with
    | Some _ as w -> w
    | None -> witness_pair rig b
  in
  match e with
  | Expr.Name _ -> None
  | Expr.Select (_, e1) | Expr.Innermost e1 | Expr.Outermost e1 ->
      witness_pair rig e1
  | Expr.Setop (_, a, b) | Expr.At_depth (_, a, b) -> first_of a b
  | Expr.Chain (a, op, b) | Expr.Chain_strict (a, op, b) -> begin
      match first_of a b with
      | Some _ as w -> w
      | None ->
          let family, strength = family_strength op in
          let lefts = Ralg.Trivial.result_names a
          and rights = Ralg.Trivial.result_names b in
          let all_trivial =
            lefts <> [] && rights <> []
            && List.for_all
                 (fun l ->
                   List.for_all
                     (fun r ->
                       Ralg.Trivial.pair_is_trivial rig ~family ~strength
                         ~left:l ~right:r)
                     rights)
                 lefts
          in
          if all_trivial then Some (List.hd lefts, op, List.hd rights)
          else None
    end

let describe_witness (l, op, r) =
  let family, strength = family_strength op in
  let a, b = match family with Ralg.Chain.Up -> (l, r) | Ralg.Chain.Down -> (r, l) in
  match strength with
  | Ralg.Chain.Direct -> Printf.sprintf "(%s, %s) is not a RIG edge" a b
  | Ralg.Chain.Simple -> Printf.sprintf "no RIG walk from %s to %s" a b

let default_cost_threshold = 50_000.

(* OQF006's detail: simple inclusions, direct inclusions (depth
   selections count as direct), set operators (innermost/outermost
   among them) and word selections. *)
let operator_counts e =
  let rec go ((simple, direct, set, sel) as acc) = function
    | Expr.Name _ -> acc
    | Expr.Select (_, e1) -> go (simple, direct, set, sel + 1) e1
    | Expr.Innermost e1 | Expr.Outermost e1 -> go (simple, direct, set + 1, sel) e1
    | Expr.Setop (_, a, b) -> go (go (simple, direct, set + 1, sel) a) b
    | Expr.Chain (a, op, b) | Expr.Chain_strict (a, op, b) ->
        let acc =
          if Expr.is_direct op then (simple, direct + 1, set, sel)
          else (simple + 1, direct, set, sel)
        in
        go (go acc a) b
    | Expr.At_depth (_, a, b) -> go (go (simple, direct + 1, set, sel) a) b
  in
  go (0, 0, 0, 0) e

let check ?text ?(stats = Oqf_cost.Stats.uniform ())
    ?(cost_threshold = default_cost_threshold) rig e =
  let span_of name =
    match text with
    | None -> None
    | Some text -> Diagnostic.span_of_word ~text name
  in
  let unknown =
    List.filter (fun n -> not (Ralg.Rig.mem rig n)) (Expr.names e)
    |> List.map (fun n ->
           Diagnostic.make ?span:(span_of n) ~code:"OQF002"
             ~severity:Diagnostic.Error
             (Printf.sprintf "unknown region name %s w.r.t. the RIG" n))
  in
  let witness_detail scope =
    match witness_pair rig scope with
    | Some w -> Some (describe_witness w)
    | None -> None
  in
  let witness_span scope =
    match witness_pair rig scope with
    | Some (l, _, _) -> span_of l
    | None -> None
  in
  let triviality =
    if Ralg.Trivial.check rig e then
      [
        Diagnostic.make ?span:(witness_span e) ?detail:(witness_detail e)
          ~code:"OQF001" ~severity:Diagnostic.Error
          "trivially empty: the answer is the empty set on every instance \
           satisfying the RIG (Prop 3.3)";
      ]
    else
      List.map
        (fun sub ->
          Diagnostic.make ?span:(witness_span sub)
            ?detail:(witness_detail sub) ~code:"OQF005"
            ~severity:Diagnostic.Warning
            (Printf.sprintf
               "subexpression %s can only be empty on instances conforming \
                to the RIG"
               (Expr.to_string sub)))
        (trivial_subexprs rig e)
  in
  let rewrites =
    let _optimized, rws = Ralg.Optimizer.plan_rewrites rig e in
    let rewrite_diag (rw : Ralg.Optimizer.rewrite) =
      let first_name =
        match String.index_opt rw.Ralg.Optimizer.detail ' ' with
        | Some i -> String.sub rw.Ralg.Optimizer.detail 0 i
        | None -> rw.Ralg.Optimizer.detail
      in
      if rw.Ralg.Optimizer.rule = "weaken-direct" then
        Diagnostic.make ?span:(span_of first_name)
          ~detail:rw.Ralg.Optimizer.detail ~code:"OQF003"
          ~severity:Diagnostic.Hint
          "direct inclusion is weakenable (Prop 3.5a); the optimizer applies \
           this rewrite"
      else
        Diagnostic.make ?span:(span_of first_name)
          ~detail:rw.Ralg.Optimizer.detail ~code:"OQF004"
          ~severity:Diagnostic.Hint
          "inclusion chain is shortenable (Prop 3.5b); the optimizer applies \
           this rewrite"
    in
    List.map rewrite_diag rws
  in
  let containment =
    (* OQF301/302/303 walk the Setop nodes with the containment engine;
       arms Prop 3.3 already proves empty are OQF005's business, so the
       rules below skip them to keep each finding single-voiced. *)
    let nontrivial e = not (Ralg.Trivial.check rig e) in
    let span_of_expr sub =
      match Expr.names sub with n :: _ -> span_of n | [] -> None
    in
    let rec walk e acc =
      let acc =
        match e with
        | Expr.Setop (Expr.Union, a, b) when nontrivial a && nontrivial b ->
            let arm sub sup =
              Diagnostic.make ?span:(span_of_expr sub)
                ~detail:
                  (Printf.sprintf "%s is contained in %s" (Expr.to_string sub)
                     (Expr.to_string sup))
                ~code:"OQF301" ~severity:Diagnostic.Warning
                (Printf.sprintf
                   "subsumed subexpression: union arm %s contributes nothing \
                    on any conforming instance"
                   (Expr.to_string sub))
              :: acc
            in
            if Contain.leq rig a b = Contain.Contained then arm a b
            else if Contain.leq rig b a = Contain.Contained then arm b a
            else acc
        | Expr.Setop (Expr.Inter, a, b) when nontrivial a && nontrivial b ->
            let conjunct redundant stronger =
              Diagnostic.make ?span:(span_of_expr redundant)
                ~detail:
                  (Printf.sprintf "%s is contained in %s"
                     (Expr.to_string stronger) (Expr.to_string redundant))
                ~code:"OQF302" ~severity:Diagnostic.Warning
                (Printf.sprintf
                   "tautological conjunct: intersecting with %s cannot change \
                    the result"
                   (Expr.to_string redundant))
              :: acc
            in
            if Contain.leq rig a b = Contain.Contained then conjunct b a
            else if Contain.leq rig b a = Contain.Contained then conjunct a b
            else acc
        | Expr.Setop (Expr.Diff, a, b)
          when nontrivial a && Contain.leq rig a b = Contain.Contained ->
            Diagnostic.make ?span:(span_of_expr a)
              ~detail:
                (Printf.sprintf "%s is contained in %s" (Expr.to_string a)
                   (Expr.to_string b))
              ~code:"OQF303" ~severity:Diagnostic.Warning
              (Printf.sprintf
                 "empty by containment: every region of %s is removed by %s, \
                  so the difference is empty on every conforming instance"
                 (Expr.to_string a) (Expr.to_string b))
            :: acc
        | _ -> acc
      in
      match e with
      | Expr.Name _ -> acc
      | Expr.Select (_, e1) | Expr.Innermost e1 | Expr.Outermost e1 ->
          walk e1 acc
      | Expr.Setop (_, a, b)
      | Expr.Chain (a, _, b)
      | Expr.Chain_strict (a, _, b)
      | Expr.At_depth (_, a, b) ->
          walk b (walk a acc)
    in
    let minimizable =
      let e' = Contain.minimize rig e in
      if Expr.equal e' e then []
      else
        [
          Diagnostic.make
            ~detail:
              (Printf.sprintf "%s => %s" (Expr.to_string e)
                 (Expr.to_string e'))
            ~code:"OQF305" ~severity:Diagnostic.Hint
            "minimizable: a provably-equivalent smaller expression exists \
             (applied by the planner under --plan cost)";
        ]
    in
    List.rev (walk e []) @ minimizable
  in
  let cost_diag =
    let cost = (Oqf_cost.Model.estimate stats e).Oqf_cost.Model.cost in
    let simple, direct, set, sel = operator_counts e in
    if direct > 0 && cost > cost_threshold then
      [
        Diagnostic.make ~code:"OQF006" ~severity:Diagnostic.Warning
          ~detail:
            (Printf.sprintf "simple=%d direct=%d set=%d sel=%d weighted=%.1f"
               simple direct set sel cost)
          (Printf.sprintf
             "estimated evaluation cost %.0f exceeds threshold %.0f and the \
              expression uses %d direct-inclusion operator(s)"
             cost cost_threshold direct);
      ]
    else []
  in
  Diagnostic.sort (unknown @ triviality @ rewrites @ containment @ cost_diag)
