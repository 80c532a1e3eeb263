type t = { text : Text.t; sa : Suffix_array.t }

let build text = { text; sa = Suffix_array.build text }

let extend t new_text ~old_len =
  { text = new_text; sa = Suffix_array.extend t.sa new_text ~old_len }

let text t = t.text
let suffix_array t = t.sa
let match_points t w = Suffix_array.find_word t.sa w
let occurrence_count t w = Suffix_array.count t.sa w

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

let select_min_count t w ~count regions =
  let positions = match_points t w in
  Region_set.containing_at_least regions ~positions ~len:(String.length w)
    ~count

let select_proximity t w1 w2 ~window regions =
  let m1 = match_points t w1 and m2 = match_points t w2 in
  let l1 = String.length w1 and l2 = String.length w2 in
  let cmp = Int.compare in
  let keep (reg : Region.t) =
    (* iterate the w1 occurrences inside the region; for each, check
       for a w2 occurrence inside the region within the window *)
    let lo = Stdx.Sorted_array.lower_bound ~cmp m1 reg.Region.start in
    let rec go i =
      if i >= Array.length m1 then false
      else begin
        let p1 = m1.(i) in
        if p1 + l1 > reg.Region.stop then false
        else begin
          let lo2 = Stdx.Sorted_array.lower_bound ~cmp m2 (p1 - window) in
          let rec probe j =
            j < Array.length m2
            && m2.(j) <= p1 + window
            && ((m2.(j) >= reg.Region.start
                && m2.(j) + l2 <= reg.Region.stop)
               || probe (j + 1))
          in
          probe lo2 || go (i + 1)
        end
      end
    in
    go lo
  in
  Region_set.filter keep regions
