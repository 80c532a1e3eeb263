(** Region Inclusion Graphs (paper §3.2, Definition 3.1).

    A RIG [G = (I, E)] has the indexed region names as nodes; an edge
    [(Ri, Rj)] states that an [Ri]-region may {e directly} include an
    [Rj]-region.  An instance satisfies [G] when every directly-including
    pair of indexed regions is licensed by an edge.  The graph may be
    cyclic (self-nested regions).

    All the walk predicates below treat walks (node repetition allowed),
    which is the reading under which the paper's rewrite conditions are
    sound on cyclic graphs. *)

type t

val create : names:string list -> edges:(string * string) list -> t
(** Build a graph.  Edge endpoints must be listed in [names]; raises
    [Invalid_argument] otherwise.  Duplicate edges are collapsed. *)

val names : t -> string list
(** Sorted node list. *)

val edges : t -> (string * string) list
(** Sorted edge list. *)

val mem : t -> string -> bool
val has_edge : t -> string -> string -> bool
val successors : t -> string -> string list
val predecessors : t -> string -> string list

val reverse : t -> t
(** Flip every edge; used to optimise [⊂]-family chains with the same
    machinery as [⊃]-family ones. *)

val reachable : t -> string -> string -> bool
(** [reachable g a b]: a walk of length >= 1 from [a] to [b] exists. *)

val reachable_avoiding : t -> string -> string -> avoid:string list -> bool
(** Like {!reachable}, but no {e interior} node of the walk may belong
    to [avoid] (the endpoints may). *)

val count_walks : t -> string -> string -> int -> int
(** [count_walks g a b n]: the number of walks of exactly [n] edges
    from [a] to [b]. *)

val only_walk_is_edge : t -> string -> string -> bool
(** Condition (a-1) of Proposition 3.5: the edge [(a, b)] exists and is
    the only walk from [a] to [b] (no walk of length >= 2). *)

val all_walks_start_with_edge : t -> string -> string -> bool
(** Condition (a-2): the edge [(a, b)] exists and every walk from [a]
    to [b] begins with it (no walk leaving [a] through another successor
    ever reaches [b]). *)

val separator : t -> src:string -> dst:string -> via:string -> bool
(** Condition (b): every walk from [src] to [dst] passes through [via]
    (trivially true when [via] is an endpoint). *)

val count_paths_avoiding :
  t -> string -> string -> avoid_interior:(string -> bool) ->
  [ `Zero | `One | `Many ]
(** Number of distinct walks of length >= 1 from the source to the
    destination whose interior nodes all fail [avoid_interior]; [`Many]
    is returned for two or more, including the infinitely-many case
    produced by a usable cycle.  Used by the §6.3 exactness test. *)

val partial : t -> keep:string list -> t
(** The RIG of a partial index (paper §6.1): nodes are [keep]; there is
    an edge [(a, b)] iff the full graph has a walk from [a] to [b] whose
    interior nodes are all outside [keep]. *)

val interior_nodes : t -> string -> string -> string list
(** Nodes other than the endpoints lying on some walk from the first to
    the second name. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?highlight:(string * string) list -> t -> string
(** GraphViz rendering of the graph (the paper draws its RIGs as
    figures, and its companion system Hy+ visualised such graphs).
    Edges listed in [highlight] are drawn dashed and bold — used to
    show a query path, like the dashed arrows of §5.1's figure. *)
