(** The §6.3 exactness test.

    With a partial index, the inclusion expression for a query path is
    exact iff every edge of the partial-RIG path it uses matches a
    {e unique} path in the full RIG (whose interior avoids the indexed
    names).  With full indexing every edge trivially matches one path. *)

val link_exact :
  full_rig:Ralg.Rig.t -> indexed:(string -> bool) -> string -> string -> bool
(** Does the partial-RIG edge [(a, b)] correspond to exactly one full
    RIG path with unindexed interior? *)
