(** Typed diagnostics for the static analyzer.

    Every finding of the query/schema/catalog checkers is one record
    with a stable code, a severity, an optional byte span into the
    checked source text, and a human message plus an optional detail
    (e.g. the rewrite the optimizer would apply).  The same record
    renders as a one-line human message and as a JSON object, so
    [oqf check --format json] is machine-consumable by CI gates.

    Severity policy:
    - {e error}: the input is wrong or can only ever produce the empty
      answer (Proposition 3.3) — execution is refused unless forced;
    - {e warning}: the input is suspicious (a dead union arm, an
      unreachable pair, a stale index) but running it is not unsound;
    - {e hint}: purely informational (a rewrite the optimizer applies
      anyway, a non-natural schema construct). *)

type severity = Error | Warning | Hint

type span = { start : int; stop : int }
(** Byte offsets into the checked text, half-open: [\[start, stop)]. *)

type t = {
  code : string;  (** stable, e.g. ["OQF001"] *)
  severity : severity;
  span : span option;
  subject : string option;
      (** what the diagnostic is about: a variable, a file, a
          non-terminal — prefixes the rendered message *)
  message : string;
  detail : string option;
      (** machine-actionable precision: the witness pair, the rewrite,
          the cost figure *)
}

val make :
  ?span:span ->
  ?subject:string ->
  ?detail:string ->
  code:string ->
  severity:severity ->
  string ->
  t

val with_subject : string -> t -> t
(** Set the subject unless one is already present. *)

val span_of_word : text:string -> string -> span option
(** The first whole-word occurrence of a name in [text] — how the
    checkers anchor a diagnostic about a region name to the query
    text. *)

val compare : t -> t -> int
(** Severity first, then code, then span position. *)

val sort : t list -> t list
val errors : t list -> t list
val has_errors : t list -> bool

val count : t list -> int * int * int
(** (errors, warnings, hints). *)

val severity_to_string : severity -> string

val pp : Format.formatter -> t -> unit
(** One line:
    [severity[code] subject: message — detail (at start..stop)]
    with the optional parts omitted when absent. *)

val to_string : t -> string

val to_json : t -> Obs.Jsonx.t
(** One JSON object; [span]/[subject]/[detail] are omitted when
    absent.  Field order is stable. *)

val list_to_json : t list -> string
(** A JSON array, one object per line — the [--format json]
    rendering. *)

val registry : (string * severity * string) list
(** Every stable code with its default severity and a one-line
    description — the table DESIGN §9 documents and
    [oqf check --list-codes] prints.  The OQF3xx family is the
    containment analysis ({!Contain}): 301 subsumed union arm, 302
    redundant conjunct, 303 empty-by-containment difference, 304
    cross-query batch subsumption, 305 minimizable expression. *)
