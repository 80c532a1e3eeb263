(** Marker-based region construction.

    PAT lets users define region sets by start and end markers ("regions
    starting with [AUTHOR =] and ending with a comma", paper §2).  This
    runs at index-construction time, where scanning the file once is
    permitted. *)

val scan :
  Text.t ->
  start_marker:string ->
  end_marker:string ->
  Region_set.t
(** Pair each occurrence of [start_marker] with the nearest following
    occurrence of [end_marker]; unmatched starts are dropped.  The
    region covers the content strictly between the two markers. *)

val scan_balanced :
  Text.t -> open_char:char -> close_char:char -> Region_set.t
(** Regions delimited by balanced single-character delimiters, supporting
    nesting (e.g. brace-delimited blocks).  Each region covers the
    content between a matching open/close pair, exclusive of the
    delimiters.  Unbalanced closes are ignored; unclosed opens are
    dropped. *)

val occurrences : Text.t -> string -> Region_set.t
(** Every occurrence of a literal string, as zero-context regions. *)
