(** Linear inclusion chains — the expressions the optimizer rewrites.

    An {e inclusion expression} (paper §3.2) is a right-grouped chain
    [A1 o1 A2 o2 … on−1 An] where each [oi] is [⊃]/[⊃d] (the "up"
    family) or each is [⊂]/[⊂d] (the "down" family), and every element
    is a region name, possibly under a word selection. *)

type strength = Simple | Direct

type family =
  | Up  (** [⊃]-family: each element includes the next *)
  | Down  (** [⊂]-family: each element is included in the next *)

type element = { name : string; selection : Expr.selection option }

type t = {
  family : family;
  elements : element list;  (** in written order; length >= 2 *)
  strengths : strength list;  (** between consecutive elements *)
}

val of_expr : Expr.t -> t option
(** Recognise a maximal homogeneous chain; [None] if the expression is
    not one (including single names, mixed families, or non-name
    operands). *)

val to_expr : t -> Expr.t
(** Rebuild the right-grouped expression. *)

val length : t -> int
(** Number of elements. *)
