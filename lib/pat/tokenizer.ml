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

(* Two passes over the bytes, count then fill, so no intermediate list
   is built.  A 256-entry table replaces [is_word_char]'s range tests. *)
let word_table =
  String.init 256 (fun i -> if is_word_char (Char.chr i) then '\001' else '\000')

let word_starts text =
  let s = Text.unsafe_contents text in
  let n = String.length s in
  let is_word i =
    Char.code (String.unsafe_get word_table (Char.code (String.unsafe_get s i)))
  in
  let count = ref 0 and prev = ref 0 in
  for i = 0 to n - 1 do
    let w = is_word i in
    if w > !prev then incr count;
    prev := w
  done;
  let out = Array.make !count 0 in
  let k = ref 0 in
  prev := 0;
  for i = 0 to n - 1 do
    let w = is_word i in
    if w > !prev then begin
      Array.unsafe_set out !k i;
      incr k
    end;
    prev := w
  done;
  out

let word_at text pos =
  if not (is_word_start text pos) then None
  else begin
    let n = Text.length text in
    let rec stop i =
      if i < n && is_word_char (Text.get text i) then stop (i + 1) else i
    in
    Some (Text.sub text ~pos ~len:(stop pos - pos))
  end
