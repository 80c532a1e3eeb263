(** Containment and subsumption analysis over the region algebra.

    [leq rig a b] decides [a ⊑ b]: is [eval a ⊆ eval b] on {e every}
    instance satisfying [rig]?  The procedure is {e sound but not
    complete} — a [Contained] verdict is a theorem (validated against
    the test kit's brute-force evaluator by the property suite), while
    [Unknown] carries no information.  It never raises and never claims
    containment for expressions mentioning names outside the RIG
    (mirroring {!Ralg.Trivial.check}'s convention: no conforming
    instance carries such names, so nothing useful can be said).

    The decision procedure layers three ingredient kinds:

    - {e lattice rules}: reflexivity; a trivially-empty left side
      (Prop 3.3) is contained in anything; [∪] is the join and [∩] the
      meet ([a ∪ b ⊑ c ⟺ a ⊑ c ∧ b ⊑ c], [a ⊑ b ∩ c ⟺ a ⊑ b ∧ a ⊑ c]);
      filters only shrink ([σ e ⊑ e], [e₁ ▷ e₂ ⊑ e₁], [ι e ⊑ e], …);
    - {e congruences}: every filtering operator is monotone in its
      operands (chains and [At_depth] test witnesses against the fixed
      universe context, so both operands are covariant; difference is
      contravariant on the right); a direct operator implies its simple
      form ([a ⊃d b ⊑ a ⊃ b]); a strict chain implies the non-strict
      one; [σ_exact w ⊑ σ_contains w] and prefix selections weaken to
      prefixes of themselves; [At_depth 0] coincides with [⊃d];
    - {e Prop 3.5 rewrite laws}: both sides are normalized with
      {!Ralg.Optimizer.optimize} (semantics-preserving under the RIG),
      so RIG-conditional equivalences — weakened direct operators,
      shortened chains — collapse to syntactic equality.

    {!minimize} applies the verdicts as equivalence-preserving
    simplifications: a conjunct implied by another is dropped
    ([a ⊑ b ⟹ a ∩ b = a]), a union arm contained in another is
    dropped ([a ⊑ b ⟹ a ∪ b = b]), and a provably-empty subtrahend
    disappears ([b = ∅ ⟹ a − b = a]).  The result evaluates to the
    same region set as the input on every conforming instance
    (property-tested), so planners may substitute it freely. *)

type verdict = Contained | Unknown

val leq : Ralg.Rig.t -> Ralg.Expr.t -> Ralg.Expr.t -> verdict
(** [leq rig a b = Contained] only if [eval a ⊆ eval b] on every
    instance satisfying [rig]. *)

val equiv : Ralg.Rig.t -> Ralg.Expr.t -> Ralg.Expr.t -> verdict
(** Containment both ways. *)

val empty : Ralg.Rig.t -> Ralg.Expr.t -> bool
(** Containment-aware emptiness: {!Ralg.Trivial.check} extended with
    [a − b = ∅] when [a ⊑ b].  Sound, not complete. *)

val minimize : Ralg.Rig.t -> Ralg.Expr.t -> Ralg.Expr.t
(** Drop provably-redundant conjuncts, subsumed union arms and empty
    subtrahends, bottom-up.  Equivalent to the input on every
    conforming instance; returns the input unchanged (physically equal
    shape) when nothing can be dropped. *)
