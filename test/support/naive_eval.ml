open Ralg
module R = Pat.Region
module Rs = Pat.Region_set

let blocked ctx outer inner =
  List.exists
    (fun u -> R.strictly_includes outer u && R.strictly_includes u inner)
    ctx

let word_positions inst w =
  Array.to_list
    (Pat.Word_index.match_points (Pat.Instance.word_index inst) w)

let prefix_positions inst w =
  Array.to_list
    (Pat.Word_index.prefix_points (Pat.Instance.word_index inst) w)

let rec eval_list inst expr =
  if not (Obs.Trace.enabled ()) then eval_body inst expr
  else begin
    let span = Obs.Trace.begin_span ("naive." ^ Expr.node_label expr) in
    match eval_body inst expr with
    | r ->
        Obs.Trace.end_span span
          ~attrs:[ ("out", Obs.Trace.Int (List.length r)) ];
        r
    | exception e ->
        Obs.Trace.end_span span;
        raise e
  end

and eval_body inst expr =
  match expr with
  | Expr.Name n -> begin
      match Pat.Instance.find_opt inst n with
      | Some set -> Rs.to_list set
      | None -> raise (Eval.Unknown_region n)
    end
  | Expr.Select (Expr.Contains_word w, e) ->
      let ps = word_positions inst w in
      let len = String.length w in
      List.filter
        (fun r ->
          List.exists (fun p -> r.R.start <= p && p + len <= r.R.stop) ps)
        (eval_list inst e)
  | Expr.Select (Expr.Exactly_word w, e) ->
      let ps = word_positions inst w in
      let len = String.length w in
      List.filter
        (fun r -> List.exists (fun p -> r.R.start = p && r.R.stop = p + len) ps)
        (eval_list inst e)
  | Expr.Select (Expr.Prefix_word w, e) ->
      let ps = prefix_positions inst w in
      let len = String.length w in
      List.filter
        (fun r ->
          R.length r >= len && List.exists (fun p -> r.R.start = p) ps)
        (eval_list inst e)
  | Expr.Setop (Expr.Union, a, b) ->
      let la = eval_list inst a and lb = eval_list inst b in
      la @ List.filter (fun r -> not (List.exists (R.equal r) la)) lb
  | Expr.Setop (Expr.Inter, a, b) ->
      let lb = eval_list inst b in
      List.filter (fun r -> List.exists (R.equal r) lb) (eval_list inst a)
  | Expr.Setop (Expr.Diff, a, b) ->
      let lb = eval_list inst b in
      List.filter (fun r -> not (List.exists (R.equal r) lb)) (eval_list inst a)
  | Expr.Innermost e ->
      let l = eval_list inst e in
      List.filter
        (fun r ->
          not
            (List.exists
               (fun r' -> (not (R.equal r r')) && R.includes r r')
               l))
        l
  | Expr.Outermost e ->
      let l = eval_list inst e in
      List.filter
        (fun r ->
          not
            (List.exists
               (fun r' -> (not (R.equal r r')) && R.includes r' r)
               l))
        l
  | Expr.Chain (a, op, b) -> begin
      let la = eval_list inst a and lb = eval_list inst b in
      let ctx = Rs.to_list (Pat.Instance.universe inst) in
      match op with
      | Expr.Including ->
          List.filter (fun r -> List.exists (fun s -> R.includes r s) lb) la
      | Expr.Included ->
          List.filter (fun r -> List.exists (fun s -> R.includes s r) lb) la
      | Expr.Directly_including ->
          List.filter
            (fun r ->
              List.exists
                (fun s -> R.includes r s && not (blocked ctx r s))
                lb)
            la
      | Expr.Directly_included ->
          List.filter
            (fun r ->
              List.exists
                (fun s -> R.includes s r && not (blocked ctx s r))
                lb)
            la
    end
  | Expr.Chain_strict (a, op, b) -> begin
      let la = eval_list inst a and lb = eval_list inst b in
      let ctx = Rs.to_list (Pat.Instance.universe inst) in
      let distinct f r s = (not (R.equal r s)) && f r s in
      match op with
      | Expr.Including ->
          List.filter
            (fun r -> List.exists (fun s -> distinct R.includes r s) lb)
            la
      | Expr.Included ->
          List.filter
            (fun r -> List.exists (fun s -> distinct (Fun.flip R.includes) r s) lb)
            la
      | Expr.Directly_including ->
          List.filter
            (fun r ->
              List.exists
                (fun s ->
                  distinct R.includes r s && not (blocked ctx r s))
                lb)
            la
      | Expr.Directly_included ->
          List.filter
            (fun r ->
              List.exists
                (fun s ->
                  distinct (Fun.flip R.includes) r s && not (blocked ctx s r))
                lb)
            la
    end
  | Expr.At_depth (n, a, b) ->
      let lb = eval_list inst b in
      let ctx = Rs.to_list (Pat.Instance.universe inst) in
      List.filter
        (fun r ->
          List.exists
            (fun s ->
              R.includes r s
              && List.length
                   (List.filter
                      (fun u ->
                        R.strictly_includes r u && R.strictly_includes u s)
                      ctx)
                 = n)
            lb)
        (eval_list inst a)

let eval inst expr = Rs.of_list (eval_list inst expr)
