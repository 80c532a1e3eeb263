(** Region-algebra expressions (paper §3.1).

    The grammar, with [Ri] region names from the index:

    {v
    e ::= Ri | e ∪ e | e ∩ e | e − e | σw(e) | ι(e) | ω(e)
        | e ⊃ e | e ⊂ e | e ⊃d e | e ⊂d e | (e)
    v}

    Chains of inclusion operators are right-grouped, as in the paper:
    [A ⊃ B ⊃ C] parses as [A ⊃ (B ⊃ C)].

    Two selection flavours are provided, both computed from the word
    index without scanning: [Contains_word] keeps regions containing an
    occurrence of the word, and [Exactly_word] keeps regions whose whole
    extent is an occurrence ("a Last_Name region that {e is} the word
    Chang"). *)

type selection =
  | Contains_word of string  (** the region contains an occurrence *)
  | Exactly_word of string  (** the region extent is an occurrence *)
  | Prefix_word of string
      (** the region extent begins with an occurrence — prefix search,
          which the PAT array answers as cheaply as exact search *)

type op =
  | Including  (** [⊃] *)
  | Directly_including  (** [⊃d] *)
  | Included  (** [⊂] *)
  | Directly_included  (** [⊂d] *)

type setop = Union | Inter | Diff

type t =
  | Name of string
  | Select of selection * t
  | Setop of setop * t * t
  | Chain of t * op * t
  | Chain_strict of t * op * t
      (** Like [Chain] but the inclusion witness must be a {e different}
          region.  The paper's operators are non-strict ([R ⊃ R = R]);
          query translation over self-nested names (cyclic RIGs) needs
          the strict form, because a path step always descends at least
          one level.  For operands that cannot share regions the two
          coincide.  Printed [>!], [>d!], [<!], [<d!]. *)
  | Innermost of t
  | Outermost of t
  | At_depth of int * t * t
      (** [At_depth (n, a, b)]: regions of [a] including a region of [b]
          with exactly [n] indexed regions strictly between — the §5.3
          fixed-length path-variable extension. *)

val equal : t -> t -> bool

val names : t -> string list
(** Region names mentioned, sorted, without duplicates. *)

val size : t -> int
(** Number of AST nodes. *)

val count_ops : t -> op -> int
(** Occurrences of a given inclusion operator. *)

val is_direct : op -> bool
val weaken : op -> op
(** [⊃d ↦ ⊃], [⊂d ↦ ⊂]; identity on the simple operators. *)

val pp : Format.formatter -> t -> unit
(** Concrete syntax, re-parsable by {!Expr_parser}: operators are
    rendered [>], [>d], [<], [<d], [|], [&], [-], selections
    [sigma["w"](e)] / [word["w"](e)], [inner(e)], [outer(e)],
    [depth[n](a, b)]. *)

val to_string : t -> string

val node_label : t -> string
(** Rendering of the root operator alone — [>d], [sigma["w"]], a region
    name — for plan annotations and trace span names. *)

(** {2 Convenience constructors} *)

val name : string -> t
val exactly : string -> t -> t
val contains : string -> t -> t
val ( >. ) : t -> t -> t  (** [⊃], right-associative *)

val ( >.. ) : t -> t -> t  (** [⊃d], right-associative *)

val ( <. ) : t -> t -> t  (** [⊂], right-associative *)

val ( <.. ) : t -> t -> t  (** [⊂d], right-associative *)
