(** Scannerless recursive-descent parsing of files against a grammar.

    PEG semantics: alternatives are ordered choice with backtracking,
    repetitions are greedy.  Whitespace is skipped before literals and
    tokens.  The paper uses Yacc for this role; a PEG over the natural
    rule shapes is equivalent for the grammars structuring schemas use,
    and directly yields the byte spans the region indices need.

    Parsing is where file bytes are consumed, so the engine reports the
    bytes it touched to {!Stdx.Stats.global} ([bytes_parsed]) — this is
    the quantity partial indexing is designed to shrink.

    A parse allocates little beyond the tree it returns: literals are
    matched in place, and a failed attempt records what it expected as
    a constant, so an error's text is formatted only when the whole
    parse fails.

    Every repetition polls {!Obs.Deadline.check} once per element, so a
    parse running under a task deadline raises {!Obs.Deadline.Expired}
    close to its budget; with no deadline armed the poll is one
    domain-local load. *)

type error = { position : int; expected : string }

val parse : Grammar.t -> Pat.Text.t -> (Parse_tree.t, error) result
(** Parse the whole text as the grammar root (trailing whitespace
    allowed). *)

val parse_at :
  Grammar.t ->
  Pat.Text.t ->
  symbol:string ->
  start:int ->
  stop:int ->
  (Parse_tree.t, error) result
(** Parse exactly the slice [\[start, stop)] as one occurrence of
    [symbol] — used to materialise candidate regions (§6.2). *)

val pp_error : Format.formatter -> error -> unit

val describe_error : Pat.Text.t -> error -> string
(** Multi-line description with line:column and a caret-annotated
    snippet of the offending input. *)
