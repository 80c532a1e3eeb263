(** The flat-set direct-inclusion kernels: reference implementations of
    [⊃d]/[⊂d] against an explicit context set, the test kit's oracle
    for the forest kernels of {!Pat.Region_set}.

    Each scans the context regions that may lie between the two
    operands, which is what makes direct inclusion "significantly
    more expensive than the simple inclusion operation" (paper, §3.1).
    The context need not be laminar.  Every kernel counts into
    {!Stdx.Stats} as {!Pat.Region_set}'s operators do: one index
    operation per call, one region comparison per region looked at. *)

val directly_including :
  context:Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t
(** [directly_including ~context r s] is [r ⊃d s]: regions of [r]
    including some [s]-region with no region of [context] strictly
    between them ([r ⊋ u ⊋ s]).  [context] is the union of {e all}
    indexed region instances, per the paper's definition. *)

val directly_including_strict :
  context:Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t
(** Like {!directly_including} but the witness must be strictly
    smaller: a region does not directly include itself. *)

val directly_included :
  context:Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t
(** [directly_included ~context r s] is [r ⊂d s] (symmetric). *)

val directly_included_strict :
  context:Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t
(** Strict variant of {!directly_included}. *)

val count_strictly_between :
  context:Pat.Region_set.t -> outer:Pat.Region.t -> inner:Pat.Region.t -> int
(** Number of context regions [u] with [outer ⊋ u ⊋ inner]. *)

val including_at_depth :
  context:Pat.Region_set.t ->
  depth:int ->
  Pat.Region_set.t ->
  Pat.Region_set.t ->
  Pat.Region_set.t
(** [including_at_depth ~context ~depth r s]: regions of [r] that
    include some [s]-region with exactly [depth] context regions
    strictly between them (§5.3's fixed-length path variables). *)

val direct_including_layered :
  context:Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t -> Pat.Region_set.t
(** The paper's §3.1 while-program for [⊃d]: iterate over nested layers
    of the left operand (outermost first) and, per layer, discard the
    right-operand regions shadowed by an intermediate context region.
    It shows the cost shape of [⊃d] in bench E8; correct for laminar
    instances (same-layer regions disjoint), which parse-tree-derived
    region sets always are. *)
