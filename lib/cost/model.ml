type est = { rows : float; upper : float; cost : float }

(* Everything the estimator returns passes through here: finite,
   non-negative, bounded — a NaN or infinity from a degenerate input
   must never reach plan comparison. *)
let ceiling = 1e15
let clamp x = if Float.is_nan x then 0.0 else Float.min ceiling (Float.max 0.0 x)
let log2 x = if x < 2.0 then 1.0 else log x /. log 2.0

(* The dominant region name of an operand, for statistics lookup on
   non-leaf operands: the first mentioned name (sorted), if any. *)
let dominant e = match Ralg.Expr.names e with [] -> None | n :: _ -> Some n

let rec walk stats e =
  let open Ralg.Expr in
  match e with
  | Name n ->
      let c = Stats.card stats n in
      (* answering a name is one index lookup plus emitting c regions *)
      { rows = c; upper = c; cost = clamp (log2 (Stats.universe stats) +. c) }
  | Select (_, inner) ->
      let i = walk stats inner in
      let sel =
        match dominant inner with
        | Some n -> Stats.word_selectivity stats n
        | None -> 0.1
      in
      {
        rows = clamp (Float.min i.upper (i.rows *. sel));
        upper = i.upper;
        cost = clamp (i.cost +. (i.rows *. log2 (Stats.universe stats)));
      }
  | Setop (Union, a, b) ->
      let ea = walk stats a and eb = walk stats b in
      {
        rows = clamp (Float.min (ea.rows +. eb.rows) (ea.upper +. eb.upper));
        upper = clamp (ea.upper +. eb.upper);
        cost = clamp (ea.cost +. eb.cost +. ea.rows +. eb.rows);
      }
  | Setop (Inter, a, b) ->
      let ea = walk stats a and eb = walk stats b in
      let u = Stats.universe stats in
      (* independence: P(region ∈ A ∩ B) = P(A)·P(B) over the universe *)
      let expected = ea.rows *. eb.rows /. Float.max 1.0 u in
      {
        rows = clamp (Float.min expected (Float.min ea.upper eb.upper));
        upper = clamp (Float.min ea.upper eb.upper);
        cost = clamp (ea.cost +. eb.cost +. ea.rows +. eb.rows);
      }
  | Setop (Diff, a, b) ->
      let ea = walk stats a and eb = walk stats b in
      let u = Stats.universe stats in
      let keep = 1.0 -. Float.min 1.0 (eb.rows /. Float.max 1.0 u) in
      {
        rows = clamp (Float.min ea.upper (ea.rows *. keep));
        upper = ea.upper;
        cost = clamp (ea.cost +. eb.cost +. ea.rows +. eb.rows);
      }
  | Chain (a, op, b) | Chain_strict (a, op, b) ->
      let ea = walk stats a and eb = walk stats b in
      let u = Stats.universe stats in
      let join = (ea.rows +. eb.rows) *. log2 (Float.max ea.rows eb.rows) in
      if Ralg.Expr.is_direct op then
        (* a direct probe can only succeed when the two operands sit
           one nesting level apart — scale the hit rate (and the
           per-candidate universe probing) by the depth-histogram
           overlap *)
        let overlap =
          match (dominant a, dominant b) with
          | Some outer, Some inner -> (
              match op with
              | Directly_including -> Stats.depth_overlap stats ~outer ~inner
              | Directly_included -> Stats.depth_overlap stats ~outer:inner ~inner:outer
              | _ -> 1.0)
          | _ -> 1.0
        in
        let probe =
          ea.rows *. Float.max 1.0 (u /. Float.max 1.0 ea.rows) *. overlap
        in
        {
          rows = clamp (Float.min ea.upper (Float.min ea.rows eb.rows *. overlap));
          upper = ea.upper;
          cost = clamp (ea.cost +. eb.cost +. join +. probe);
        }
      else
        {
          rows = clamp (Float.min ea.upper (Float.min ea.rows eb.rows));
          upper = ea.upper;
          cost = clamp (ea.cost +. eb.cost +. join);
        }
  | Innermost inner | Outermost inner ->
      let i = walk stats inner in
      {
        rows = clamp (Float.min i.upper (i.rows /. 2.0));
        upper = i.upper;
        cost = clamp (i.cost +. (i.rows *. log2 i.rows));
      }
  | At_depth (_, a, b) ->
      let ea = walk stats a and eb = walk stats b in
      let u = Stats.universe stats in
      {
        rows = clamp (Float.min ea.upper (Float.min ea.rows eb.rows /. 2.0));
        upper = ea.upper;
        cost =
          clamp
            (ea.cost +. eb.cost
            +. ((ea.rows +. eb.rows) *. log2 (Float.max ea.rows eb.rows))
            +. (ea.rows *. u));
      }

let estimate stats e =
  let r = walk stats e in
  { rows = clamp r.rows; upper = clamp r.upper; cost = clamp r.cost }

let rows stats e = (estimate stats e).rows

(* Phase 2 slices each candidate's extent out of the text and re-parses
   it; the constant prices one region's slice+parse relative to index
   work. *)
let materialize_cost _stats ~rows = clamp (rows *. 32.0)

(* An uncovered candidate set (§6.2) must be sliced, parsed and
   re-filtered whole: price each surviving candidate at its average
   region size (bytes over the dominant name's cardinality), never
   below the exact-plan materialization. *)
let refilter_cost stats e ~rows =
  let card =
    match dominant e with
    | Some n -> Stats.card stats n
    | None -> Stats.universe stats
  in
  let bytes = Stats.text_bytes stats in
  let per_region =
    if bytes <= 0.0 then 256.0 else Float.max 64.0 (bytes /. Float.max 1.0 card)
  in
  clamp (rows *. per_region)

(* Whole-file parse: linear in the bytes the statistics cover.  When
   bytes are unknown (uniform statistics) the universe cardinality
   implies a corpus size instead, and a hard floor keeps scanning
   priced above indexed access even on empty statistics. *)
let scan_cost stats =
  let implied = Stats.universe stats *. 64.0 in
  clamp
    (Float.max 4096.0 (Float.max (Stats.text_bytes stats *. 2.0) implied))
