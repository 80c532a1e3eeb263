(** Brute-force checks of an instance against a region inclusion graph
    (Definition 3.1). *)

val satisfies_rig :
  Pat.Instance.t -> edges:(string * string) list -> (string * string) option
(** For every pair of indexed regions [r ∈ Ri], [s ∈ Rj] such that [r]
    directly includes [s] (w.r.t. the universe), the edge [(Ri, Rj)]
    must be listed.  Returns a violating name pair, or [None] when the
    instance satisfies the graph.  Quadratic. *)

val verify_against_rig :
  Fschema.View.t -> Pat.Instance.t -> (unit, string) result
(** Check an instance against the RIG of its indexed names, derived
    from the view's grammar. *)
