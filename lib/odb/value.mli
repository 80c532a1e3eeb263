(** Database values.

    The object model of the paper's database view (after XSQL/O2):
    atomic strings, tuples with named attributes, sets, and tagged
    values.  Set elements produced by a [A → B*] grammar rule are
    wrapped in [Variant "B"] so that the XSQL-style path step [.B] can
    select them ("each element {e is} a Name"). *)

type t =
  | Str of string
  | Tuple of (string * t) list
  | Set of t list
  | Variant of string * t  (** type-tagged value *)

val equal : t -> t -> bool
(** Structural, with set semantics for [Set] (order- and
    duplicate-insensitive). *)

val compare : t -> t -> int
(** Total order compatible with {!equal}. *)

val compare_normalized : t -> t -> int
(** {!compare} on values that {!normalize} returned: it does not
    normalize them again, so it allocates nothing. *)

val normalize : t -> t
(** Sort and deduplicate every [Set], recursively. *)

val field : t -> string -> t option
(** Tuple attribute lookup ([None] on other shapes). *)

val to_display_string : t -> string
(** Compact single-line rendering for examples and the CLI: a string is
    itself, a tuple [{k=v, k=v}], a set [{v; v}], a tagged value its
    value. *)

val iter_display : (string -> unit) -> t -> unit
(** [iter_display emit v] hands {!to_display_string}[ v] to [emit] in
    pieces, building no string of its own: the value's strings and
    keys as they are, the punctuation as constants. *)

val pp : Format.formatter -> t -> unit

val str : string -> t
val tuple : (string * t) list -> t
val set : t list -> t
val variant : string -> t -> t
