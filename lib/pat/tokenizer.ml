let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let is_word_start text pos =
  pos >= 0
  && pos < Text.length text
  && is_word_char (Text.get text pos)
  && (pos = 0 || not (is_word_char (Text.get text (pos - 1))))

let is_word_end text pos =
  pos = Text.length text
  || (pos >= 0 && pos < Text.length text && not (is_word_char (Text.get text pos)))

(* A 256-entry table replaces [is_word_char]'s range tests. *)
let word_table =
  String.init 256 (fun i -> if is_word_char (Char.chr i) then '\001' else '\000')

(* A word starts at [from] when the byte before it, in the same text,
   is no word byte: starting mid-text reads that one byte of context. *)
let iter_word_starts ?(from = 0) text f =
  let s = Text.unsafe_contents text in
  let prev =
    ref (if from = 0 then 0 else Char.code word_table.[Char.code s.[from - 1]])
  in
  for i = from to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    let w = Char.code (String.unsafe_get word_table c) in
    if w > !prev then f i;
    prev := w
  done

(* Two passes over the bytes, count then fill, so no intermediate list
   is built. *)
let word_starts ?from text =
  let count = ref 0 in
  iter_word_starts ?from text (fun _ -> incr count);
  let out = Array.make !count 0 in
  let k = ref 0 in
  iter_word_starts ?from text (fun i ->
      Array.unsafe_set out !k i;
      incr k);
  out
