(** Database-image construction (the natural-schema annotations of §4).

    From a parse tree the builder derives the value each node denotes:
    token nodes become strings, sequence nodes become tuples over their
    non-literal items (passing through when there is exactly one), and
    star items become sets of elements tagged with their non-terminal
    name. *)

val value_of_tree : Pat.Text.t -> Parse_tree.t -> Odb.Value.t
(** The database image of one node. *)

val regions_by_name :
  Parse_tree.t -> keep:string list -> (string * Pat.Region.t list) list
(** The regions of each name in [keep], in [keep]'s order, bucketed in
    one walk of the tree; each bucket lists its regions in preorder. *)

val scoped_regions :
  Parse_tree.t -> name:string -> within:string -> Pat.Region.t list
(** The regions of [name] that lie below an occurrence of [within] in
    the parse tree — §7's selective indexing ("instead of indexing all
    the Name regions it is better to index only those that reside in
    some Authors region"). *)

val instance_of_tree :
  Pat.Text.t -> Parse_tree.t -> keep:string list -> Pat.Instance.t
(** Build a region-index instance from the parse tree, keeping only the
    names in [keep] (pass every indexable non-terminal for full
    indexing).  The grammar root is normally excluded. *)

val load :
  Pat.Text.t ->
  Parse_tree.t ->
  class_of:(string -> string option) ->
  Odb.Database.t ->
  unit
(** Walk the tree; every node whose symbol is mapped to a class by
    [class_of] is materialised and inserted into that class extent.
    This is the paper's "construct the database image of the file" full
    load. *)
