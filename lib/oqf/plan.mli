(** Query plans.

    A plan records, per FROM variable, the region expression that
    computes its {e candidate regions} — an exact answer set when the
    indexed names suffice (§5, §6.3), otherwise a superset to be parsed
    and filtered (§6.2) — plus how each SELECT item is produced. *)

type candidates =
  | All  (** no index support: every region of the root non-terminal —
             or, if the root is unindexed, a full file parse *)
  | Empty  (** provably empty under the RIG (Proposition 3.3) *)
  | Expr of Ralg.Expr.t

type var_plan = {
  var : string;
  class_name : string;
  root : string;  (** the non-terminal whose regions are candidates *)
  candidates : candidates;
  covered : bool;
      (** the WHERE clause's effect on this variable is computed exactly
          by [candidates]; when false, [candidates] is a superset and
          phase 2 must re-filter *)
}

type select_plan =
  | Materialize of string  (** variable: parse its surviving candidate
                               regions and navigate the item's path *)
  | Project_regions of { var : string; attrs : string list }
      (** index-only projection (§5.2): the values are the texts of the
          regions {!descent} through [attrs] selects below [var]'s
          candidates; no parsing at all *)

type t = {
  query : Odb.Query.t;
  var_plans : var_plan list;
  select_plans : select_plan list;
  exact : bool;
      (** every variable covered: phase 2 needs no re-filtering *)
  index_names : string list;
}

val descent : root:string -> attrs:string list -> Ralg.Expr.t -> Ralg.Expr.t
(** [An ⊂d … ⊂d A1 ⊂d base] for [attrs = [A1; …; An]] below regions of
    [root], strict ([⊂d!]) on a step to the name it starts from: a path
    step always descends a level. *)

val pp : Format.formatter -> t -> unit
(** Multi-line EXPLAIN-style rendering. *)
