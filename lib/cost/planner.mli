(** Cost-based plan selection over Prop 3.5-equivalent variants.

    The rule-based optimizer (paper §3.2) rewrites toward the unique
    "most efficient version" of each chain — cardinality-blind.  The
    cost-based mode instead {e enumerates} expressions that are
    set-equivalent by construction — the Prop 3.5 rewrite output, the
    original, and operand-order variants of commutative set operations
    — and picks the one the {!Model} prices cheapest.  Every candidate
    denotes the same region set, so results are byte-identical
    whichever wins; only the work differs. *)

type mode = Rules | Cost_based

val mode_of_string : string -> (mode, string) result
(** ["rules"] or ["cost"]. *)

type decision = {
  chosen : Ralg.Expr.t;
  rewrites : Ralg.Optimizer.rewrite list;
      (** Prop 3.5 rewrites in effect in the chosen expression ([]
          when the un-rewritten original won) *)
  tag : string;
      (** which candidate won: ["rules"], ["original"], or
          ["operand-swap"] *)
  est : Model.est;  (** the winner's estimate *)
  considered : int;  (** candidates enumerated *)
}

type candidates
(** An expression's equivalent plans, which depend on the RIG alone. *)

val candidates : rig:Ralg.Rig.t -> Ralg.Expr.t -> candidates
(** The rules rewrite (bumping the optimizer rewrite counters once),
    the original when it differs, and its operand-order variants. *)

val choose : stats:Stats.t -> candidates -> decision
(** Estimate and pick silently.  Ties prefer the rules choice, so cost
    mode degenerates to rules mode exactly when statistics are
    uninformative. *)
