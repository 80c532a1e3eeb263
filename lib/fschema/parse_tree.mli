(** Parse trees with byte spans.

    Every node corresponds to a non-terminal occurrence and carries the
    half-open byte span of the text it matched (including its literal
    delimiters, so a parent span strictly contains its children's). *)

type t = { symbol : string; start : int; stop : int; content : content }

and content =
  | Leaf  (** token rule: the span is the (trimmed) token text *)
  | Branch of branch list
      (** sequence rule: one entry per non-literal item, in order *)

and branch =
  | Child of t  (** a [Nonterm] item *)
  | Children of string * t list  (** a [Star] item: element name, elements *)
  | Text of int * int  (** an anonymous [Tok] item: trimmed span *)

val region : t -> Pat.Region.t
(** The node's span as a region. *)

val all_regions : t -> (string * Pat.Region.t) list
(** Every node of the tree as a [(symbol, region)] pair, preorder. *)

val strictly_nested : t -> bool
(** Check the span discipline: every child span strictly inside its
    parent's (used by tests). *)

val pp : ?keep:string list -> Format.formatter -> t -> unit
(** Render the tree, one node per line with indentation.  With [keep],
    only nodes whose symbol is listed are shown (children of hidden
    nodes are promoted) — the view of the paper's Figure 3, where a
    partial index sees only some of the parse tree. *)
