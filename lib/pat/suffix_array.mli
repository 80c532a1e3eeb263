(** The PAT array: a suffix array over word-start positions.

    Gonnet's PAT structure is a lexicographically sorted array of the
    sistrings (suffixes) beginning at each word start.  Any string that
    occurs in the text starting at a word boundary can be located with
    two binary searches, independent of file size.

    The array is built lazily, one first-byte bucket at a time
    (top-down, as in Giegerich, Kurtz & Stoye's lazy suffix trees): a
    search collects and sorts only the bucket its pattern starts in,
    once, so a query pays for the buckets its words land in and never
    for the rest.  One array may be searched and extended from several
    domains at once; bucket collections and sorts are serialised by a
    per-array lock. *)

type t

val build : Text.t -> t
(** An array over the text with no bucket collected or sorted yet: O(1)
    in the text.  The first search in bucket [b] (the word starts whose
    first byte is [b]) collects it, by one pass over the text comparing
    each byte with [b].  After two such one-byte scans, the next bucket
    not collected yet is collected with every other remaining one in a
    single grouped pass (a counting sort by first byte while
    tokenizing), so a query's few lookups scan a few times and a search
    of every bucket costs at most that grouped pass plus two scans.
    Each such whole-text pass counts one in the [pat.word_start_passes]
    counter of {!Obs.Metrics}.  The search then sorts the bucket, in
    place, by the first 1024 bytes of its suffixes (end of text first; suffixes equal on all
    1024 come out in an unspecified order).  The kernel is an in-place
    Bentley–Sedgewick multikey quicksort: three-way partitions on the
    byte at the current depth, so a prefix shared by a partition is read
    once per partition rather than once per comparison.  For a bucket
    of w word starts whose distinguishing prefixes sum to D bytes it
    costs O(w log w + D) byte reads, at most O(w log w + 1024 w) on
    pathological repetitive texts, with O(log w + 1024) stack.  Searches
    remain exact for patterns of any length (longer patterns filter
    within the capped-prefix range). *)

val prefix_cap : int
(** The sort key length: 1024 bytes. *)

val order : t -> int array
(** The word starts in suffix order (a fresh copy).  Collects every
    bucket not collected yet in one grouped pass, then sorts every
    bucket.  (The word-start count is [count t ""]; there is no [size],
    since knowing it would mean collecting.) *)

val collected_slots : t -> int
(** The word starts held by the buckets collected so far (sorted or
    not): the array's resident slots, 0 on a fresh array.  Collects
    nothing. *)

val extend : t -> Text.t -> old_len:int -> t
(** [extend t new_text ~old_len] upgrades an array built over the first
    [old_len] bytes (the old text, which must be a prefix of
    [new_text]) to one over the whole of [new_text], tokenizing only
    the appended tail.  A bucket no search has collected stays
    uncollected, and costs nothing here.  A collected but unsorted
    bucket takes the tail's word starts and stays unsorted.  In a
    sorted bucket, entries
    whose capped comparison window lies in the unchanged prefix keep
    their order; only the bucket's tail word starts and the few old
    entries whose window crosses the append point are re-sorted, then
    merged, so buckets a long-lived process searches stay sorted across
    appends.  [t] is read under its lock and left unchanged: it may
    still be searched, concurrently too.  Raises [Invalid_argument]
    when [old_len] is not the length of the indexed text. *)

val find : t -> string -> int array
(** [find t pattern] returns every position [p] (sorted increasing) such
    that [pattern] occurs in the text at [p] and [p] is a word start.
    The empty pattern matches every word start and collects no bucket;
    a pattern whose first byte starts no word (not a letter or digit)
    finds nothing and collects none either.  Records one word lookup in
    {!Stdx.Stats.global}. *)

val find_word : t -> string -> int array
(** Like {!find} but additionally requires the match to end at a token
    boundary, so that searching for ["Chang"] does not return positions
    of ["Changed"].  Multi-token patterns (["G. F. Corliss"]) are
    supported: only the final token's boundary is checked. *)

val count : t -> string -> int
(** Number of occurrences of the pattern at word starts, without
    materialising positions.  [count t ""] is the number of word
    starts, as [Array.length (find t "")]; it collects no bucket. *)
