(** Path expressions over database values (paper §5.1, §5.3).

    A path is a sequence of steps applied existentially, traversing
    sets transparently:

    - [Attr a] follows a tuple attribute, or selects the elements of a
      set tagged [a];
    - [Star] (written [*X] in XSQL) reaches {e every} nested value at
      any depth, including the current one;
    - [Any] (written [Xi]) descends exactly one level, whatever the
      attribute;
    - [Plus a] (written [a+], after GraphLog's path regular
      expressions) applies the [a] attribute one or more times — the
      transitive closure of the attribute edge. *)

type step = Attr of string | Star | Any | Plus of string
type t = step list

val navigate : Value.t -> t -> Value.t list
(** All values reached from the root by the path.  Duplicates are kept
    (callers with set semantics should dedup). *)

val of_strings : string list -> t
(** Parse path components: ["*X"]-prefixed components become [Star],
    components matching [X<digits>] become [Any], anything else is an
    attribute step. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
