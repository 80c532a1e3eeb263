(** Sets of regions and the operators of the region algebra.

    A set is a strictly increasing array of regions under
    {!Region.compare}.  The operators implement §3.1 of the paper:
    set-theoretic [∪ ∩ −], inclusion [⊃]/[⊂], {e direct} inclusion
    [⊃d]/[⊂d] relative to the full set of indexed regions, innermost
    [ι] and outermost [ω], and the word selections [σ].

    Inclusion joins run in O((|R| + |S|) log) using range-min/max
    tables.  The scan kernels for direct inclusion additionally scan
    the indexed regions that may lie between the two operands, which is
    what makes it "significantly more expensive than the simple
    inclusion operation" (paper, §3.1); over a laminar universe the
    forest kernels ({!directly_including_in} and its kin) replace that
    scan with parent lookups. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int

val of_list : Region.t list -> t
(** Sort and deduplicate. *)

val of_array : Region.t array -> t
(** Equal to [of_list] on the same regions.  A strictly increasing
    array costs one linear check and is kept as it is (it must not be
    mutated afterwards); anything else is sorted. *)

val of_pairs : (int * int) list -> t
(** Build from [(start, stop)] pairs; equal to [of_list] on the same
    regions.  Linear when the pairs are already strictly increasing (as
    {!to_list} output is), a sort otherwise. *)

val to_list : t -> Region.t list
val to_array : t -> Region.t array
(** The returned array must not be mutated. *)

val mem : t -> Region.t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
val iter : (Region.t -> unit) -> t -> unit
val fold : ('a -> Region.t -> 'a) -> 'a -> t -> 'a
val filter : (Region.t -> bool) -> t -> t
val choose : t -> Region.t option
(** Some arbitrary element (the least), or [None]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val including : t -> t -> t
(** [including r s] is [r ⊃ s]: the regions of [r] that include some
    region of [s] (non-strict). *)

val included : t -> t -> t
(** [included r s] is [r ⊂ s]: the regions of [r] that are included in
    some region of [s] (non-strict). *)

val including_strict : t -> t -> t
(** Like {!including} but the witness must be strictly smaller. *)

val included_strict : t -> t -> t
(** Like {!included} but the witness must be strictly larger. *)

val directly_including_strict : context:t -> t -> t -> t
(** Like {!directly_including} but the witness must be strictly
    smaller.  Needed when both operands can hold the same regions
    (self-nested names): a region does not directly include itself. *)

val directly_included_strict : context:t -> t -> t -> t
(** Strict variant of {!directly_included}. *)

val directly_including : context:t -> t -> t -> t
(** [directly_including ~context r s] is [r ⊃d s]: regions of [r]
    including some [s]-region with no region of [context] strictly
    between them ([r ⊋ u ⊋ s]).  [context] is the union of {e all}
    indexed region instances, per the paper's definition. *)

val directly_included : context:t -> t -> t -> t
(** [directly_included ~context r s] is [r ⊂d s] (symmetric). *)

(** {2 The region forest}

    A universe whose extents are pairwise disjoint or nested — every
    universe built from a parse tree — is {e laminar} (see {!laminar}):
    its distinct extents form an ordered forest.  There, [r ⊃d s] holds iff [s]'s
    extent is [r]'s or a child of [r]'s, so the direct-inclusion
    operators become parent lookups.  The [_in] kernels below answer
    exactly as their scan counterparts with [~context:(nodes f)].  They
    start from the witness operand [s] (locate its nodes, then look up
    parents or walk the [r]-regions inside them), so their cost follows
    [s] and the answer, not [r] or the universe.  They run the scan
    kernel when the universe is not laminar.

    Both operands must be subsets of [nodes f], as every expression
    result over an instance is.  Regions that are not nodes are not
    supported: a kernel raises [Invalid_argument] on those it meets
    (any [s] region when [r] is not empty; for the ⊂d shapes also the
    [r]-regions inside an [s] node), and the ⊃d shapes
    ([directly_including*_in], [including_at_depth_in]) never look at
    the other [r]-regions. *)

type forest

val forest : t -> forest
(** The forest over a universe (one stack sweep); the set is kept as
    the node array. *)

val forest_init : int -> (int -> Region.t) -> forest
(** [forest_init n node] is [forest] of the [n] regions [node 0], …,
    [node (n-1)], swept as they are produced, so a decoder builds the
    node array and the parents in one pass.  [node] is called once per
    index, in increasing order.  Raises [Invalid_argument] unless the
    regions are strictly increasing. *)

val forest_append : forest -> t -> forest
(** [forest_append f s] is [forest] of [f]'s nodes followed by [s],
    whose regions must all come after them: it copies [f]'s arrays and
    sweeps only [s], from the chain of [f]'s nodes still open at its
    last, so the nodes the sweep compares are [s]'s and that chain's.
    Raises [Invalid_argument] unless the regions are strictly
    increasing. *)

val nodes : forest -> t
(** The universe, in {!Region.compare} order. *)

val parents : forest -> int array
(** Index into {!nodes} of each node's parent, [-1] for a root.  A
    parent precedes its children.  Must not be mutated. *)

val laminar : forest -> bool
(** Whether the regions including each node form a chain, so that the
    parent array is the inclusion forest: each node's includers are
    exactly its ancestors.  Parse-tree universes always are; a pair of
    crossing extents with a node inside both, or an empty extent where
    two regions touch, is not.  When it is false the parents are still
    the stack sweep's (each node's nearest includer left on the
    stack). *)

val merge : t list -> t
(** Union of many sets in one k-way merge, keeping the first record
    of equal extents.  A build step: nothing is counted. *)

val directly_including_in : forest -> t -> t -> t
(** [r ⊃d s]: like {!directly_including} with [~context:(nodes f)]. *)

val directly_including_strict_in : forest -> t -> t -> t
val directly_included_in : forest -> t -> t -> t
val directly_included_strict_in : forest -> t -> t -> t

val including_at_depth_in : forest -> depth:int -> t -> t -> t
(** Like {!including_at_depth} with [~context:(nodes f)]: the ancestor
    at distance [depth + 1], and at depth 0 also the equal extent. *)

val innermost : t -> t
(** [ι]: elements that include no other element of the set. *)

val outermost : t -> t
(** [ω]: elements included in no other element of the set. *)

val containing_match : t -> positions:int array -> len:int -> t
(** [σ_w] (containment form): regions containing at least one occurrence
    of a word of length [len] at one of the sorted [positions]. *)

val select : (Region.t -> bool) -> t -> t
(** [σ] as a test of each region's own extent (the exact and prefix
    forms): the regions that pass, counted as one index operation and
    one region comparison per region.  Unlike {!filter}, which counts
    nothing. *)

val containing_at_least : t -> positions:int array -> len:int -> count:int -> t
(** Frequency search: regions containing at least [count] of the
    occurrences. *)

val occurrences_within : t -> positions:int array -> len:int -> Region.t -> int
(** Number of the occurrences lying inside one region. *)

val count_strictly_between : context:t -> outer:Region.t -> inner:Region.t -> int
(** Number of context regions [u] with [outer ⊋ u ⊋ inner]; used for
    fixed-length path variables (§5.3). *)

val including_at_depth : context:t -> depth:int -> t -> t -> t
(** [including_at_depth ~context ~depth r s]: regions of [r] that
    include some [s]-region with exactly [depth] context regions
    strictly between them. *)

val pp : Format.formatter -> t -> unit
