(** Translating database queries into region expressions (§5, §6.1).

    For each FROM variable the WHERE clause is compiled into a region
    expression over the indexed names: a path
    [r.A1.A2…An = "w"] becomes the inclusion chain
    [R ⊃d A1 ⊃d … ⊃d σw(An)] restricted to the indexed names, [*X]
    variables become simple inclusion [⊃], fixed-length variables
    become depth-constrained inclusion, and boolean connectives map to
    [∪ ∩ −].  Each construct tracks whether it is {e exact} (§6.3) or a
    candidate superset (§6.2).

    Selections are placed according to how a non-terminal's text
    relates to its value: an equality against an {e atomic} carrier
    (a token rule, following pass-through wrappers) compiles to the
    exact-extent selection [σ]; anything else falls back to a
    containment selection, marked inexact. *)

type env = {
  view : Fschema.View.t;
  full_rig : Ralg.Rig.t;
  index_names : string list;
  query_rig : Ralg.Rig.t;
      (** the RIG of the indexed names, which the optimizer, the
          minimizer and the plan-level checks work over *)
}

val env : Fschema.View.t -> index:string list -> env
(** [index] lists the region names available at query time. *)

val step_possible :
  env -> src:string -> dst:string -> stars:int -> anys:int -> bool
(** Can a query path step from a region of [src] to one of [dst] with
    [stars] [*X] and [anys] [Xi] wildcards in between, under the full
    RIG?  ([stars > 0] asks for any walk, [anys > 0] for a walk of
    exactly [anys + 1] edges, neither for one edge.)  The Prop 3.3
    test the planner applies per path step; the static analyzer uses
    it to report {e why} a path can only be empty. *)

val compile : env -> Odb.Query.t -> (Plan.t, string) result
(** Build the plan.  Fails on validation errors (unknown class, unbound
    variable). *)

val indexed_path_attrs : env -> root:string -> Odb.Path.t -> string list option
(** For a concrete path (no [*X]/[Xi] variables), the indexed region
    names it traverses, extended to the value carrier of its final
    attribute when that carrier is indexed and atomic.  [None] when the
    path has variables, is provably impossible, ends below the indexed
    names, or its final carrier's text is not its value.  Used by the
    §5.2 join assist and, when the path also ends on an indexed name
    and every step is exact (§6.3), index-only projection, which read
    path values straight from region texts. *)
