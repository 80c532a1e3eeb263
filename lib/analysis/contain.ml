module Expr = Ralg.Expr

type verdict = Contained | Unknown

(* a ⊃d b filters with [includes ∧ ¬blocked], a ⊃ b with [includes]
   alone (the definitions of §3.1), so the direct form implies the simple one
   on every instance — no RIG fact needed. *)
let op_implies o1 o2 =
  o1 = o2
  ||
  match (o1, o2) with
  | Expr.Directly_including, Expr.Including -> true
  | Expr.Directly_included, Expr.Included -> true
  | _ -> false

let is_prefix ~prefix w =
  String.length prefix <= String.length w
  && String.sub w 0 (String.length prefix) = prefix

(* σ₁ ⊑ σ₂ as region filters.  Exact occurrences start at a match
   point (a word-boundary occurrence with an end boundary), and match
   points are prefix points of every prefix of the word; a region of
   length |w| has length ≥ |p| for any prefix p.  Containment
   selections relate only to themselves. *)
let sel_implies s1 s2 =
  s1 = s2
  ||
  match (s1, s2) with
  | Expr.Exactly_word w, Expr.Contains_word w' -> String.equal w w'
  | Expr.Exactly_word w, Expr.Prefix_word p
  | Expr.Prefix_word w, Expr.Prefix_word p ->
      is_prefix ~prefix:p w
  | _ -> false

let known rig e = List.for_all (Ralg.Rig.mem rig) (Expr.names e)

(* The recursive core: [go a b] is true only if a ⊑ b on every
   conforming instance.  Every recursive call strictly decreases
   [size a + size b], so the search terminates without fuel. *)
let rec go rig a b =
  Expr.equal a b
  || Ralg.Trivial.check rig a
  || (match a with
     | Expr.Setop (Expr.Union, c, d) -> go rig c b && go rig d b
     | _ -> false)
  || (match b with
     | Expr.Setop (Expr.Inter, c, d) -> go rig a c && go rig a d
     | Expr.Setop (Expr.Union, c, d) -> go rig a c || go rig a d
     | _ -> false)
  || left_weaken rig a b
  || congruence rig a b

(* Strip one filtering layer off [a]: each of these operators answers
   a subset of its (left) operand, so [strip a ⊑ b] gives [a ⊑ b]. *)
and left_weaken rig a b =
  match a with
  | Expr.Select (_, a')
  | Expr.Innermost a'
  | Expr.Outermost a'
  | Expr.Chain (a', _, _)
  | Expr.Chain_strict (a', _, _)
  | Expr.At_depth (_, a', _) ->
      go rig a' b
  | Expr.Setop (Expr.Inter, c, d) -> go rig c b || go rig d b
  | Expr.Setop (Expr.Diff, c, _) -> go rig c b
  | _ -> false

(* Monotonicity: chains and At_depth test witnesses against the fixed
   universe context, so both operands are covariant; difference is
   covariant left, contravariant right.  Innermost/Outermost are not
   monotone (adding regions can demote a minimal one), so they only
   relate at equivalent operands. *)
and congruence rig a b =
  match (a, b) with
  | Expr.Select (s1, a'), Expr.Select (s2, b') ->
      sel_implies s1 s2 && go rig a' b'
  | Expr.Chain (a1, o1, b1), Expr.Chain (a2, o2, b2)
  | Expr.Chain_strict (a1, o1, b1), Expr.Chain (a2, o2, b2)
  | Expr.Chain_strict (a1, o1, b1), Expr.Chain_strict (a2, o2, b2) ->
      op_implies o1 o2 && go rig a1 a2 && go rig b1 b2
  | Expr.At_depth (n1, a1, b1), Expr.At_depth (n2, a2, b2) ->
      n1 = n2 && go rig a1 a2 && go rig b1 b2
  | Expr.At_depth (_, a1, b1), Expr.Chain (a2, Expr.Including, b2) ->
      (* a depth-n witness is in particular an included witness *)
      go rig a1 a2 && go rig b1 b2
  | Expr.At_depth (0, a1, b1), Expr.Chain (a2, Expr.Directly_including, b2)
  | ( Expr.Chain (a1, Expr.Directly_including, b1),
      Expr.At_depth (0, a2, b2) ) ->
      (* depth 0 = no universe region strictly between = not blocked:
         the two operators filter with the same witness condition *)
      go rig a1 a2 && go rig b1 b2
  | Expr.Setop (Expr.Diff, a1, b1), Expr.Setop (Expr.Diff, a2, b2) ->
      go rig a1 a2 && go rig b2 b1
  | Expr.Innermost a', Expr.Innermost b' | Expr.Outermost a', Expr.Outermost b'
    ->
      go rig a' b' && go rig b' a'
  | _ -> false

let leq rig a b =
  if not (known rig a && known rig b) then Unknown
  else if
    go rig a b
    (* Prop 3.5 laws: the optimizer's normal form is semantics-
       preserving on conforming instances, so RIG-conditional
       equivalences (weakened ⊃d, shortened chains) reduce to
       syntactic coincidence after normalization. *)
    || go rig (Ralg.Optimizer.optimize rig a) (Ralg.Optimizer.optimize rig b)
  then Contained
  else Unknown

let equiv rig a b =
  match (leq rig a b, leq rig b a) with
  | Contained, Contained -> Contained
  | _ -> Unknown

let empty rig e =
  known rig e
  &&
  let rec emp e =
    Ralg.Trivial.check rig e
    ||
    match e with
    | Expr.Setop (Expr.Diff, a, b) -> emp a || go rig a b
    | Expr.Setop (Expr.Inter, a, b) -> emp a || emp b
    | Expr.Setop (Expr.Union, a, b) -> emp a && emp b
    | Expr.Select (_, e) | Expr.Innermost e | Expr.Outermost e -> emp e
    | Expr.Chain (a, _, b) | Expr.Chain_strict (a, _, b)
    | Expr.At_depth (_, a, b) ->
        emp a || emp b
    | Expr.Name _ -> false
  in
  emp e

(* ---------------- minimization ---------------- *)

let rec flatten setop e acc =
  match e with
  | Expr.Setop (op, a, b) when op = setop ->
      flatten setop a (flatten setop b acc)
  | e -> e :: acc

let rebuild setop = function
  | [] -> invalid_arg "Contain.rebuild: empty operand list"
  | [ e ] -> e
  | e :: rest ->
      List.fold_left (fun acc x -> Expr.Setop (setop, acc, x)) e rest

(* Keep operands left to right; [redundant kept c] says c may be
   dropped given the kept ones, [superseded c kept] says an already
   kept operand becomes droppable once c is admitted.  First
   occurrences win, so the scan is deterministic and never drops two
   mutually-contained duplicates. *)
let prune ~redundant ~superseded ops =
  let kept =
    List.fold_left
      (fun kept c ->
        if List.exists (fun k -> redundant k c) kept then kept
        else c :: List.filter (fun k -> not (superseded c k)) kept)
      [] ops
  in
  List.rev kept

let minimize rig e =
  if not (known rig e) then e
  else begin
    let contained a b = go rig a b in
    let rec mini e =
      match e with
      | Expr.Name _ -> e
      | Expr.Select (s, e1) ->
          let m1 = mini e1 in
          if m1 == e1 then e else Expr.Select (s, m1)
      | Expr.Innermost e1 ->
          let m1 = mini e1 in
          if m1 == e1 then e else Expr.Innermost m1
      | Expr.Outermost e1 ->
          let m1 = mini e1 in
          if m1 == e1 then e else Expr.Outermost m1
      | Expr.Chain (a, op, b) ->
          let ma = mini a and mb = mini b in
          if ma == a && mb == b then e else Expr.Chain (ma, op, mb)
      | Expr.Chain_strict (a, op, b) ->
          let ma = mini a and mb = mini b in
          if ma == a && mb == b then e else Expr.Chain_strict (ma, op, mb)
      | Expr.At_depth (n, a, b) ->
          let ma = mini a and mb = mini b in
          if ma == a && mb == b then e else Expr.At_depth (n, ma, mb)
      | Expr.Setop (Expr.Diff, a, b) ->
          let ma = mini a and mb = mini b in
          (* a − ∅ = a; the subtrahend is dead weight *)
          if empty rig mb then ma
          else if ma == a && mb == b then e
          else Expr.Setop (Expr.Diff, ma, mb)
      | Expr.Setop (Expr.Inter, _, _) ->
          let orig = flatten Expr.Inter e [] in
          let ops = List.map mini orig in
          (* k ⊑ c ⟹ k ∩ c = k: the weaker conjunct is implied *)
          let kept =
            prune ~redundant:(fun k c -> contained k c)
              ~superseded:(fun c k -> contained c k)
              ops
          in
          if List.length kept = List.length orig && List.for_all2 ( == ) kept orig
          then e
          else rebuild Expr.Inter kept
      | Expr.Setop (Expr.Union, _, _) ->
          let orig = flatten Expr.Union e [] in
          let ops = List.map mini orig in
          (* c ⊑ k ⟹ k ∪ c = k: the subsumed arm contributes nothing *)
          let kept =
            prune ~redundant:(fun k c -> contained c k)
              ~superseded:(fun c k -> contained k c)
              ops
          in
          if List.length kept = List.length orig && List.for_all2 ( == ) kept orig
          then e
          else rebuild Expr.Union kept
    in
    mini e
  end
