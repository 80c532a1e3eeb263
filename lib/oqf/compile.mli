(** Translating database queries into region expressions (§5, §6.1).

    Each rooted path is resolved once by {!Fschema.Resolver} into the
    regions it descends through, with the meaning {!Odb.Path.navigate}
    gives it on the database view.  For each FROM variable the WHERE
    clause is then compiled into a region expression over the indexed
    names: a path [r.A1.A2…An = "w"] becomes the inclusion chain
    [R ⊃d A1 ⊃d … ⊃d σw(An)] restricted to the indexed names, [*X]
    variables become simple inclusion [⊃], fixed-length variables
    become depth-constrained inclusion, and boolean connectives map to
    [∪ ∩ −].  Each construct tracks whether it is {e exact} (§6.3) or a
    candidate superset (§6.2).  A path that reaches nothing (it names
    no attribute of the value it steps from, or steps past a string)
    makes its predicate empty; a SELECT item that reaches nothing is
    materialized, and phase 2 projects nothing for it.

    Selections are placed according to how a region's text relates to
    its value: an equality against an {e atomic} region (a token rule,
    reached through pass-through carriers) compiles to the exact-extent
    selection [σ]; anything else falls back to a containment
    selection, marked inexact. *)

type env = {
  view : Fschema.View.t;
  paths : Fschema.Resolver.t;
      (** the view's path types and full RIG, derived once *)
  index_names : string list;
  query_rig : Ralg.Rig.t;
      (** the RIG of the indexed names, which the optimizer, the
          minimizer and the plan-level checks work over *)
}

val env : Fschema.View.t -> index:string list -> env
(** [index] lists the region names available at query time. *)

type error =
  | Unknown_class of string  (** a FROM class the view does not map *)
  | Invalid of string  (** {!Odb.Query.validate}'s message *)

val error_message : error -> string
(** ["unknown class: C"], or the validation message. *)

val validate : Fschema.View.t -> Odb.Query.t -> (unit, error) result
(** The checks {!compile} makes before planning. *)

val compile : env -> Odb.Query.t -> (Plan.t, error) result

val indexed_path_attrs : env -> root:string -> Odb.Path.t -> string list option
(** The indexed region names a path descends through by direct
    inclusion, pass-through carriers included, when its last region is
    indexed and atomic (its text is the path's value).  [None] for a
    path with [*X]/[Xi]/[a+] steps, one that reaches nothing, or one
    whose value is not a region's text.  Used by the §5.2 join assist;
    index-only projection uses it too when the last region the query
    names is indexed and every step is exact (§6.3).  Both read path
    values straight from region texts. *)
