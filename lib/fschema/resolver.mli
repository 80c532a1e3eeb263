(** What a query path reaches (paper §4.1, §5): one answer for the
    planner, the join assist, index-only projection and the analyzer.

    A path step is resolved against the database types the view builds
    ({!Schema_types}), exactly as {!Odb.Path.navigate} steps through
    the values {!Builder.value_of_tree} makes: a pass-through wrapper
    ([Title → "{" Title_value "}"]) has its carrier's value, a string
    has no attributes, a star field is entered to its elements, and
    [text] names an anonymous token field.  The result is the step list
    in region terms: the named regions the path descends through, each
    related to the one before by direct inclusion, a fixed depth, any
    depth ([*X]) or a closure ([a+]), and whether that region relation
    selects exactly the values the path reaches.

    A path that reaches nothing (it names no field of the type it steps
    from, or steps past a string) resolves to {!nothing}. *)

type t

val make : Grammar.t -> t
(** Derive the types, what one and any number of steps reach from each
    region's value, and the full RIG, once per grammar: resolving a
    path then only reads them. *)

val rig : t -> Ralg.Rig.t
(** The grammar's full RIG ({!Rig_of_grammar.full}). *)

val carrier : t -> string -> string option
(** The non-terminal whose value a pass-through wrapper has
    ([Title → "{" Title_value "}"] gives [Title_value]); [None] when
    the rule builds its own value. *)

type rel =
  | Child  (** one region level below the previous link: [⊃d] *)
  | Depth of int
      (** exactly [n] regions strictly between (a run of [Xi] steps) *)
  | Below  (** any number of levels below ([*X]): [⊃] *)
  | Closure  (** one or more levels through regions of the name ([a+]) *)

type link = {
  name : string;  (** the region *)
  rel : rel;
  named : bool;
      (** the query named this step; [false] for a pass-through
          carrier, whose region has its wrapper's value *)
  exact : bool;
      (** [rel] from the previous link selects exactly the regions of
          [name] the path reaches; otherwise a superset *)
}

type ending =
  | Value of { atomic : bool }
      (** the value of the last link's region (of the root when there
          is no link); [atomic] when that region's text is the value (a
          token rule) *)
  | Inside
      (** values at or below the last link's region that no region
          names: an anonymous [text] field, or what trailing [*X]/[Xi]
          steps reach *)

type resolution = { links : link list; ending : ending }

type reason =
  | Unknown_attribute  (** the attribute is no name of the schema *)
  | Past_string  (** the step leaves a string value *)
  | No_attribute  (** no value the step leaves has the attribute *)

type nothing = { at : int;  (** index of the failing step *) reason : reason }

val resolve : t -> root:string -> Odb.Path.t -> (resolution, nothing) result
(** Resolve a path from a region of the class root [root]. *)
