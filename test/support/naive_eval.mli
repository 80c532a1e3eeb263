(** Reference evaluator with direct quantifier semantics.

    Every operator is computed by brute-force enumeration straight from
    its definition in §3.1.  Quadratic or worse; exists to validate
    {!Ralg.Eval} (and through it the {!Pat.Region_set} kernels) in
    property tests. *)

val eval : Pat.Instance.t -> Ralg.Expr.t -> Pat.Region_set.t
(** Same contract as {!Ralg.Eval.eval}, including
    {!Ralg.Eval.Unknown_region}. *)
