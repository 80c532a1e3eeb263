(** Cardinality and cost estimation over region expressions.

    Every estimate is a triple: [rows], the expected result
    cardinality under the independence assumptions documented in
    {!Stats}; [upper], a hard bound that holds whenever the leaf
    cardinalities are exact (every operator of the algebra returns a
    subset of one operand, or at most the sum for unions — so the
    bound composes structurally); and [cost], a scalar (lower is
    better).  All three are clamped finite and non-negative regardless
    of input.

    This is the one cost model: the cost planner minimizes it, OQF006
    ({!Analysis.Expr_check}) warns on it, and EXPLAIN and
    [oqf explain] print it. *)

type est = {
  rows : float;  (** expected result cardinality *)
  upper : float;
      (** hard cardinality bound, sound when leaf cardinalities are
          exact (e.g. statistics taken from the instance being
          queried) *)
  cost : float;  (** estimated evaluation cost, lower is better *)
}

val estimate : Stats.t -> Ralg.Expr.t -> est
(** Estimate one (sub)expression.  Total over the tree; call on a
    subexpression to get that node's own subtree estimate. *)

val rows : Stats.t -> Ralg.Expr.t -> float
(** [(estimate stats e).rows] — the shape {!Ralg.Annot.pp} wants for
    estimated-vs-actual display. *)

val materialize_cost : Stats.t -> rows:float -> float
(** Cost of phase-2 materializing [rows] candidate regions of an exact
    plan (extent slicing per candidate, no re-filtering). *)

val refilter_cost : Stats.t -> Ralg.Expr.t -> rows:float -> float
(** Cost of phase-2 parsing and re-filtering [rows] {e uncovered}
    candidates of [e] (§6.2): each candidate is sliced and parsed
    whole, priced at the average region size of the expression's
    dominant name.  Always at least {!materialize_cost}. *)

val scan_cost : Stats.t -> float
(** Cost of answering from a whole-file parse instead of any index —
    the naive-eval fallback the advisor prices un-indexed queries at.
    Linear in the covered bytes; when bytes are unknown the universe
    cardinality implies the corpus size instead. *)
