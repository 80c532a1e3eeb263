(** Word segmentation.

    PAT indexes {e sistrings}: semi-infinite strings starting at word
    boundaries.  This module defines what a word is (a maximal run of
    ASCII letters and digits) and enumerates word-start positions. *)

val is_word_char : char -> bool
(** Letters and digits (ASCII). *)

val word_starts : ?from:int -> Text.t -> int array
(** Strictly increasing positions at which a word begins: a word
    character whose predecessor is absent or not a word character.
    With [~from], only the positions at or past [from]; the byte before
    [from] still decides whether a word begins at [from]. *)

val iter_word_starts : ?from:int -> Text.t -> (int -> unit) -> unit
(** [iter_word_starts ?from text f] calls [f] on each of
    {!word_starts}, in increasing order, without building the array. *)

val is_word_start : Text.t -> int -> bool
(** Whether a word begins at the position. *)

val is_word_end : Text.t -> int -> bool
(** Whether position [pos] is a valid token end: [pos] is the text
    length or the byte at [pos] is not a word character. *)
