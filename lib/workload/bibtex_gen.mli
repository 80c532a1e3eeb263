(** Synthetic BibTeX corpora conforming to {!Fschema.Bibtex_schema}.

    Deterministic in the seed.  Author/editor last names and keywords
    are Zipf-distributed so that selective and unselective query words
    both exist; cross-references ([CITES]) point at earlier keys so
    join queries have matches. *)

type params = {
  seed : int;
  n_references : int;
  max_authors : int;  (** authors per reference, uniform in [1..max] *)
  max_editors : int;
  max_keywords : int;
  max_cites : int;
  abstract_words : int;  (** words per abstract *)
  name_pool : int;  (** distinct last names *)
  zipf_s : float;  (** skew of the name/keyword draws *)
}

val default : params
(** 200 references, 3 authors, skew 1.1, seed 42. *)

val with_size : int -> params
(** [default] at a given reference count. *)

val generate : params -> string
(** The file text, parseable by the BibTeX grammar. *)
