(** Index selection (§7).

    To fully compute a query it suffices to index (i) the non-terminals
    mentioned by its optimized inclusion expressions and (ii), for each
    remaining direct-inclusion pair, one non-terminal on each full-RIG
    walk between the pair's endpoints (so that a region of some indexed
    name always witnesses non-direct inclusion). *)

val required_indices :
  Fschema.View.t -> Odb.Query.t -> (string list, string) result
(** The sufficient index set for exact computation of the query,
    sorted.  Computed from the full-indexing plan: optimized expression
    names plus greedily chosen walk-blockers for each surviving direct
    operator. *)

val explain :
  Fschema.View.t -> index:string list -> Odb.Query.t -> (string, string) result
(** Human-readable plan report: per-variable naive and optimized
    expressions, their {!Oqf_cost.Model} costs under uniform
    statistics (no file is read), exactness, and the advisor's
    sufficient index set. *)
