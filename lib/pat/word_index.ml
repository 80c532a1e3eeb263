type t = { text : Text.t; sa : Suffix_array.t }

let build text = { text; sa = Suffix_array.build text }

let extend t new_text ~old_len =
  { text = new_text; sa = Suffix_array.extend t.sa new_text ~old_len }

let text t = t.text
let suffix_array t = t.sa
let match_points t w = Suffix_array.find_word t.sa w

let select_containing t w regions =
  let positions = match_points t w in
  Region_set.containing_match regions ~positions ~len:(String.length w)

(* Whether a word starts at [pos] and the text there begins with [w]. *)
let opens_with t pos w =
  let m = String.length w in
  let rec from k = k = m || (Text.get t.text (pos + k) = w.[k] && from (k + 1)) in
  Tokenizer.is_word_start t.text pos && pos + m <= Text.length t.text && from 0

(* A region passes exactly when its start is among [match_points]
   (resp. [prefix_points]) for [w]: the PAT search would find the same
   regions, so none is made. *)
let select_exact t w regions =
  let m = String.length w in
  let ends_word = m > 0 && Tokenizer.is_word_char w.[m - 1] in
  Region_set.select
    (fun (r : Region.t) ->
      Region.length r = m
      && opens_with t r.start w
      && ((not ends_word) || Tokenizer.is_word_end t.text r.stop))
    regions

let prefix_points t w = Suffix_array.find t.sa w

let select_prefix t w regions =
  Region_set.select
    (fun (r : Region.t) ->
      Region.length r >= String.length w && opens_with t r.start w)
    regions
