(** EXPLAIN ANALYZE rendering.

    Combines the static side of an executed query — the plan and the
    optimizer rewrites that shaped it — with the actual per-node costs
    collected by {!Ralg.Eval.eval_shared_annotated} (via
    [Execute.run ~explain:true]) and each node's {!Oqf_cost.Model}
    estimate over the source's planning statistics ({!Execute.stats}):
    estimated rows beside the actual [out=] count, estimated cost
    beside the actual work, in either plan mode.

    The "analyzed totals" line sums the per-node self costs across all
    annotated trees; for plans without a join assist it equals the
    [index_ops] / [region_comparisons] of the outcome's {!Stdx.Stats}. *)

val pp :
  ?show_times:bool ->
  source:Execute.source ->
  Format.formatter ->
  Execute.outcome ->
  unit
(** [show_times] (default [false]) appends per-node wall-clock
    durations; leave it off for deterministic transcripts. *)
