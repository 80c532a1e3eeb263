(** Static checks on region-algebra expressions (codes OQF001–OQF006).

    Everything here is decided on the RIG alone — no file is touched:

    - OQF001 ({e error}): the whole expression is trivially empty under
      Proposition 3.3 — it answers the empty set on {e every} instance
      satisfying the RIG;
    - OQF002 ({e error}): a mentioned region name is not in the RIG;
    - OQF003 ({e hint}): a direct inclusion the optimizer weakens via
      Proposition 3.5 (a), with the rewrite it would apply;
    - OQF004 ({e hint}): a chain the optimizer shortens via
      Proposition 3.5 (b);
    - OQF005 ({e warning}): a proper subexpression (e.g. one union arm)
      is trivially empty while the whole is not — dead weight that can
      only contribute the empty set on conforming instances;
    - OQF006 ({e warning}): the cost estimate exceeds the threshold and
      the expression still carries direct-inclusion operators after
      optimization would run — the expensive case Bille–Gørtz-style
      tree inclusion work warns about.

    The OQF3xx containment family (backed by {!Contain}) is emitted
    here too, for a single expression:

    - OQF301 ({e warning}): a union arm is provably contained in its
      sibling — it contributes nothing on any conforming instance;
    - OQF302 ({e warning}): an intersection operand is implied by the
      other side — intersecting with it cannot change the result;
    - OQF303 ({e warning}): a difference [a − b] with [a ⊑ b] — empty
      on every conforming instance, but not by Prop 3.3 alone;
    - OQF305 ({e hint}): {!Contain.minimize} found a smaller provably
      equivalent expression, printed in the detail as [orig => small].

    (OQF304, cross-query batch subsumption, lives in {!Oqf.Check}
    because it needs the whole [--queries] batch.) *)

val trivial_subexprs : Ralg.Rig.t -> Ralg.Expr.t -> Ralg.Expr.t list
(** The {e maximal} trivially-empty subexpressions: every returned
    node satisfies {!Ralg.Trivial.check} on its own (so each is sound
    to replace by the empty set), and no returned node is inside
    another.  [[e]] itself when the whole expression is trivial. *)

val check :
  ?text:string ->
  ?stats:Oqf_cost.Stats.t ->
  ?cost_threshold:float ->
  Ralg.Rig.t ->
  Ralg.Expr.t ->
  Diagnostic.t list
(** All diagnostics for one expression, sorted by severity.  [text]
    (the source the expression was parsed from) anchors spans.
    OQF006 prices the expression with {!Oqf_cost.Model.estimate}
    under [stats] (default {!Oqf_cost.Stats.uniform}), the model the
    cost planner minimizes; its detail counts the operators by kind. *)
