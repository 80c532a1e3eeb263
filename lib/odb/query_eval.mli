(** Query evaluation over class extents — the "standard database
    implementation" the paper compares against.

    Nested-loop semantics: the FROM clause binds each variable to every
    object of its class extent; the predicate is tested under the usual
    existential path semantics ([r.p = "w"] holds when {e some} value
    reached by [p] equals the string); the SELECT items project the
    satisfying bindings. *)

type row = Value.t list
(** One value per SELECT item. *)

val eval : Database.t -> Query.t -> row list
(** Rows are deduplicated (set semantics) and word containment is
    tested on the string values reached by the path. *)

val matches : (string * Value.t) list -> Query.pred -> bool
(** Predicate test under a variable binding (exposed for the two-phase
    executor, which re-filters candidate objects). *)
