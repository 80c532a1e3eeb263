(** Index persistence.

    Saves a built instance (text, named region sets) to disk and loads
    it back, so the CLI can separate the indexing phase from the query
    phase like the PAT system does.  The word index (suffix array) is
    rebuilt on load, deterministically.  Storing it would cost ~5
    marshalled bytes per word start, ~0.85 bytes per source byte on
    generated logs (about half again the catalog's size).  Rebuilding
    it on load costs nothing up front: each first-byte bucket is
    collected and sorted by the first search that needs it (see
    {!Suffix_array.build}).

    Format 3 stores the text once, then the universe once: each name
    with its region count, the node count, then one varint record per
    (extent, name) pair — delta start, length, name tag — in
    {!Region.compare} order, consecutive records of one extent forming
    one node.  One pass over the records, driven by the forest's stack
    sweep ({!Region_set.forest_init}), yields the node array, the
    parents and every name's set, sharing the region records; the
    counts size every array up front.  On a generated 750-entry log
    (75 KB of text) the regions take 11.3 KB, against 38.5 KB
    marshalled in format 2; on 150 BibTeX references (78 KB), 13.0 KB
    against ~42 KB.

    Files carry a magic header, a format-version field and an MD5
    checksum of the body, so a corrupt, truncated or outdated index
    file is rejected with a precise error instead of a garbage decode.
    Nothing is unmarshalled: the decoder is total and bounds-checked —
    every count is checked against the bytes left before it is
    allocated, every extent against the text, the records must be
    strictly increasing and the counts exact — so any malformed body
    that passes the checksum is a [Corrupt] error, never an
    exception.  The catalog treats {!Version_mismatch} (formats 1 and
    2) as "stale, rebuild". *)

val format_version : int
(** The version written by {!save} and required by {!load}. *)

type error =
  | Not_an_index_file of string  (** missing or foreign magic header *)
  | Version_mismatch of { path : string; found : int; expected : int }
  | Corrupt of { path : string; reason : string }
      (** unreadable, truncated, checksum mismatch or undecodable *)

val error_message : error -> string

val save : path:string -> Instance.t -> unit
(** Write the instance to [path].  Overwrites. *)

val load_result : path:string -> (Instance.t, error) result
(** Read an instance back, classifying every failure. *)

val verify : path:string -> (unit, error) result
(** Check header, version and checksum without decoding the body — the
    catalog's staleness probe, for callers that load nothing after it
    ([oqf catalog status] and [catalog refresh], serve, the watcher).
    It reads the file the way {!load_result} does.  Both add the body
    bytes they hash to the [pat.index_bytes_checked] counter of
    {!Obs.Metrics}. *)

val load : path:string -> Instance.t
(** Like {!load_result} but raises [Failure] with the error message. *)
