(** Natural structuring schemas (paper §4).

    A structuring schema is a grammar annotated with database
    construction; for {e natural} schemas the annotation is determined
    by the rule shape, so this module only stores the grammar and the
    library derives values, regions and the RIG from it:

    - a [Token] rule maps to an atomic string;
    - a [Seq] rule maps to a tuple over its non-literal items (or
      passes through when there is exactly one);
    - a [Star] item maps to a set of tagged elements.

    {b Span discipline.}  Every region built for a parse-tree node must
    {e strictly} contain the regions of its children, otherwise direct
    inclusion could not tell parent from child.  [create] therefore
    rejects a right-hand side without literals in which one
    non-terminal or [Star] item can span the whole rule because every
    other item can match the empty string (a [Star], or a non-terminal
    with such an alternative): a bare [Nonterm], a bare [Star], or
    [Item → Head Note*].  Tokens never match the empty string, so
    [Name → First_Name Last_Name] over token rules is legal.  Wrap the
    items in delimiters (["{" … "}"]), which real file formats have
    anyway. *)

type term_spec =
  | Word  (** a maximal run of letters/digits *)
  | Until of char list
      (** raw text up to (not including) any stop character, trimmed of
          surrounding whitespace; must be non-empty after trimming *)

type item =
  | Lit of string  (** literal terminal; must be non-empty *)
  | Nonterm of string
  | Star of { nonterm : string; separator : string option }
      (** zero or more elements, optionally separated by a literal *)
  | Tok of term_spec  (** anonymous token: contributes a string value
                          but no named region *)

type rhs = Seq of item list | Token of term_spec
type rule = { lhs : string; rhs : rhs }
type t

type error =
  | Spans_parent of { lhs : string; item : string }
      (** the span discipline: [item] can have [lhs]'s extent *)
  | Invalid of string
      (** an undefined name, an empty right-hand side or literal, or a
          repeated name *)

val error_message : error -> string

val create : root:string -> rule list -> (t, error) result
(** Validate and build: every referenced non-terminal must be defined,
    the root must be defined, the non-literal items of a [Seq] must have
    distinct names, and the span discipline above must hold. *)

val create_exn : root:string -> rule list -> t

val root : t -> string
val nonterminals : t -> string list
(** All defined non-terminals, sorted. *)

val indexable : t -> string list
(** Non-terminals other than the root — the candidates for region
    indexing (the paper excludes the grammar root). *)

val rules_of : t -> string -> rhs list
(** Alternatives for one non-terminal, in declaration order. *)

(** The rules as the parser reads them, resolved once by {!create}:
    non-terminals are numbered in {!nonterminals} order, items name
    their non-terminal by number, and a token's stop characters are a
    256-byte mask (byte [c] is ['\001'] when [c] stops the token). *)
module Resolved : sig
  type spec = Word | Until of string

  type item =
    | Lit of string
    | Nonterm of int
    | Star of int * string option  (** element, separator *)
    | Tok of spec

  type rhs = Seq of item array | Token of spec
end

val number : t -> string -> int option
(** The number of a defined non-terminal. *)

val name : t -> int -> string
(** The non-terminal numbered [i]; the same string on every call. *)

val resolved : t -> int -> Resolved.rhs array
(** The alternatives of the non-terminal numbered [i], in declaration
    order. *)

val pp : Format.formatter -> t -> unit
