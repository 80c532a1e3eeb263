(** Derived database types.

    The paper's §4.1 structuring schema begins with class and type
    declarations ([Class Reference = tuple(Key : string, Authors :
    set(Name), …)]).  For natural schemas those declarations are
    determined by the grammar's rule shapes; this module derives and
    prints them. *)

type ty =
  | Str_ty  (** atomic string *)
  | Named of string  (** reference to another declared type *)
  | Set_ty of ty
  | Tuple_ty of (string * ty) list
  | Union_ty of ty list  (** disjunctive non-terminal (paper, fn. 5) *)

val of_grammar : Grammar.t -> (string * ty) list
(** One declaration per non-terminal, in sorted order.  Pass-through
    wrappers declare the wrapped type directly. *)

val to_string : View.t -> string
