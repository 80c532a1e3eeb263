(** Incremental index maintenance for append-only sources.

    The paper's motivating file system (§2) contains files that only
    grow — logs, mail folders.  When the old contents are an unchanged
    prefix of the new file, the indices need not be rebuilt: only the
    appended tail is tokenized and parsed, the word index is extended
    ({!Pat.Word_index.extend}) and each named region set is unioned
    with the tail's regions. *)

val append_shape : Fschema.Grammar.t -> (string * string) option
(** [Some (header, element)] when the grammar's root rule is the
    literal [header] followed by [element*] with no separator — the
    shape under which appending whole elements leaves old regions
    untouched.  [None] otherwise (such schemas always rebuild). *)

val extend_instance :
  Fschema.View.t ->
  old_instance:Pat.Instance.t ->
  old_len:int ->
  Pat.Text.t ->
  (Pat.Instance.t, string) result
(** [extend_instance view ~old_instance ~old_len new_text] extends an
    instance over the first [old_len] bytes to all of [new_text]
    (whose prefix of length [old_len] must equal the old text; the
    caller checks this with the fingerprint).  The indexed names are
    the old instance's.  Fails — and the caller falls back to a full
    rebuild — when the schema is not append-only, the old instance
    does not cover exactly [old_len] bytes, an old region starts at
    [old_len] (only an empty one can), or the tail does not parse as a
    run of elements. *)
