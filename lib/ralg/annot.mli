(** Per-node actual-cost annotations — EXPLAIN ANALYZE for the PAT
    algebra.

    {!Eval.eval_annotated} mirrors the expression tree with one node
    per operator application, carrying the work that application
    itself performed (counter deltas around the operator, children
    excluded), so the sum of the self quantities over a tree equals
    the {!Stdx.Stats} delta of evaluating the expression. *)

type t = {
  expr : Expr.t;  (** the subexpression rooted here *)
  label : string;  (** operator rendering, e.g. [>d] or [sigma["Chang"]] *)
  out_card : int;  (** regions returned by this node *)
  self_ops : int;  (** index operations by this node itself *)
  self_cmps : int;  (** region comparisons by this node itself *)
  self_lookups : int;  (** word-index searches by this node itself *)
  self_regions : int;  (** regions produced by this node itself *)
  duration_ms : float;
  cached : bool;
      (** shared-subexpression hit: the result was reused, the node did
          no work of its own *)
  children : t list;
}

val total_ops : t -> int
(** Sum of [self_ops] over the subtree. *)

val total_cmps : t -> int
(** Sum of [self_cmps] over the subtree. *)

val total_lookups : t -> int

val pp :
  ?estimate:(Expr.t -> float) ->
  ?est_rows:(Expr.t -> float) ->
  ?show_times:bool ->
  Format.formatter ->
  t ->
  unit
(** Indented tree: one line per operator with actual out-cardinality
    and self/subtree work, and — when [estimate] is given — the
    subtree's estimated cost (in the caller's cost model) next to the
    actuals.  [est_rows]
    additionally prints an estimated result cardinality beside each
    node's actual [out=] count (the cost-based planner's
    estimated-vs-actual display).  [show_times] (default [false])
    appends wall-clock durations; leave it off for deterministic
    transcripts. *)
