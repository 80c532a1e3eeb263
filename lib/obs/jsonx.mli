(** A minimal JSON value type with a parser and printer.

    The serve wire protocol is newline-delimited JSON; the repo takes
    no external JSON dependency, so this is the whole story: a
    recursive-descent parser over a string (one protocol line at a
    time — lines are bounded by {!Protocol.max_line}, so recursion
    depth is bounded too) and a printer that emits no newlines, which
    is what makes one-value-per-line framing sound. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse exactly one JSON value (surrounding whitespace allowed);
    trailing garbage is an error.  Errors carry a byte offset. *)

val to_string : t -> string
(** Compact, single-line.  Integral floats print without a decimal
    point ([Num 3.] is ["3"]); strings escape control characters,
    backslash and quote, and pass other bytes through verbatim. *)

val write : Buffer.t -> t -> unit
(** {!to_string} into a buffer. *)

val escape : string -> string
(** The string-literal body escaping used by {!to_string}, without the
    surrounding quotes. *)

val iter_escaped : (string -> int -> int -> unit) -> string -> unit
(** [iter_escaped emit s] hands [escape s] to [emit] in pieces
    [(str, off, len)]: each run of bytes that needs no escaping as a
    substring of [s], each escape sequence from a shared table.  Escaping
    is bytewise, so the escapes of two strings concatenate to the escape
    of their concatenation. *)

(** Accessors for pulling fields out of a parsed request; all return
    [None] on a type mismatch or missing member. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val bool : t -> bool option
