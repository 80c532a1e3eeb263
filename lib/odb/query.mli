(** XSQL-like queries over the database view (paper §2, §5).

    Supported shape:

    {v
    SELECT <item> [, <item>]*
    FROM <Class> <var> [, <Class> <var>]*
    WHERE <predicate>
    v}

    Items are variables or paths rooted at a variable; predicates
    compare a path with a string constant or with another path, test
    word containment, and combine with [AND]/[OR]/[NOT].  Paths may use
    the §5.3 extensions: [*X] (any sequence of attributes) and
    [Xi] (exactly one attribute, any name). *)

type rooted_path = { var : string; path : Path.t }

type pred =
  | True
  | Eq_const of rooted_path * string  (** [r.p = "w"] *)
  | Eq_paths of rooted_path * rooted_path  (** [r.p = s.q] *)
  | Contains of rooted_path * string  (** [r.p CONTAINS "w"] *)
  | Starts_with of rooted_path * string  (** [r.p STARTS WITH "w"] *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type t = {
  select : rooted_path list;  (** empty path = the whole object *)
  from_ : (string * string) list;  (** (class, variable) pairs *)
  where : pred;
}

val var : string -> rooted_path
val rooted : string -> string list -> rooted_path

val pred_vars : pred -> string list
(** Variables mentioned by a predicate (with duplicates). *)

val validate : t -> (unit, string) result
(** Check that every used variable is bound in [FROM] and that classes
    and variables are non-empty. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
