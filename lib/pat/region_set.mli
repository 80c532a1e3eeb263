(** Sets of regions and the operators of the region algebra.

    A set is a strictly increasing array of regions under
    {!Region.compare}.  The operators implement §3.1 of the paper:
    set-theoretic [∪ ∩ −], inclusion [⊃]/[⊂], {e direct} inclusion
    [⊃d]/[⊂d] relative to the full set of indexed regions, innermost
    [ι] and outermost [ω], and the word selections [σ].

    Inclusion joins run in O((|R| + |S|) log) using range-min/max
    tables.  Direct inclusion is decided over the region forest of the
    indexed regions ({!directly_including_in} and its kin) by parent
    lookups, not by scanning the regions that may lie between the two
    operands, which is what makes the flat-set program "significantly
    more expensive than the simple inclusion operation" (paper, §3.1). *)

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

(** {2 The region forest}

    A universe is {e laminar} when the regions including each of its
    regions form a chain.  Every universe built from a parse tree is:
    its extents are pairwise disjoint or nested, so its distinct
    extents form an ordered forest.  A pair of crossing extents with a
    region inside both, or an empty extent where two regions touch, is
    not laminar, and the forest builders refuse it.  Over the forest,
    [r ⊃d s] holds iff [s]'s extent is [r]'s or a child of [r]'s — no
    indexed region lies strictly between — so the direct-inclusion
    operators become parent lookups.  The [_in] kernels below start
    from the witness operand [s] (locate its nodes, then look up
    parents or walk the [r]-regions inside them), so their cost follows
    [s] and the answer, not [r] or the universe.

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
    the node array.  Raises [Invalid_argument] unless the universe is
    laminar. *)

val forest_init : int -> (int -> Region.t) -> forest
(** [forest_init n node] is [forest] of the [n] regions [node 0], …,
    [node (n-1)], swept as they are produced, so a decoder builds the
    node array and the parents in one pass.  [node] is called once per
    index, in increasing order.  Raises [Invalid_argument] unless the
    regions are strictly increasing and laminar. *)

val forest_append : forest -> t -> forest
(** [forest_append f s] is [forest] of [f]'s nodes followed by [s],
    whose regions must all come after them: it copies [f]'s arrays and
    sweeps only [s], from the chain of [f]'s nodes still open at its
    last, so the nodes the sweep compares are [s]'s and that chain's.
    Raises [Invalid_argument] unless the regions are strictly
    increasing and laminar. *)

val nodes : forest -> t
(** The universe, in {!Region.compare} order. *)

val parents : forest -> int array
(** Index into {!nodes} of each node's parent, [-1] for a root.  A
    parent precedes its children.  Must not be mutated. *)

val merge : t list -> t
(** Union of many sets in one k-way merge, keeping the first record
    of equal extents.  A build step: nothing is counted. *)

val directly_including_in : forest -> t -> t -> t
(** [directly_including_in f r s] is [r ⊃d s]: the regions of [r]
    including some [s]-region with no node of [f] strictly between
    them ([r ⊋ u ⊋ s]). *)

val directly_including_strict_in : forest -> t -> t -> t
(** Like {!directly_including_in} but the witness must be strictly
    smaller.  Needed when both operands can hold the same regions
    (self-nested names): a region does not directly include itself. *)

val directly_included_in : forest -> t -> t -> t
(** [r ⊂d s] (symmetric to {!directly_including_in}). *)

val directly_included_strict_in : forest -> t -> t -> t
(** Strict variant of {!directly_included_in}. *)

val including_at_depth_in : forest -> depth:int -> t -> t -> t
(** The regions of [r] that include some [s]-region with exactly
    [depth] nodes of [f] strictly between them: the ancestor at
    distance [depth + 1], and at depth 0 also the equal extent. *)

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

val pp : Format.formatter -> t -> unit
