type t = { text : Text.t; order : int array (* word starts in suffix order *) }

(* Sistrings are ordered by their first [prefix_cap] bytes only.  Two
   sistrings agreeing on that long a prefix may appear in either order,
   which is invisible to any pattern search of length <= prefix_cap:
   binary search only ever compares pattern-length prefixes.  The cap
   bounds construction at O(w log w + w · prefix_cap) even on
   pathological texts (megabytes of repeated characters); longer
   patterns are handled in {!find} by a filtering pass. *)
let prefix_cap = 1024

(* Compare the suffixes beginning at [i] and [j] byte-wise from offset
   [d] on, up to the cap; end of text sorts first. *)
let rec compare_from s d i j =
  if d >= prefix_cap || i = j then 0
  else
    let n = String.length s in
    if i + d >= n then if j + d >= n then 0 else -1
    else if j + d >= n then 1
    else
      let c =
        Char.compare (String.unsafe_get s (i + d)) (String.unsafe_get s (j + d))
      in
      if c <> 0 then c else compare_from s (d + 1) i j

let compare_suffixes s i j = compare_from s 0 i j

(* The sort key of the suffix at [p] at depth [d]: its byte there, or
   -1 past the end of text. *)
let key s p d =
  if p + d < String.length s then Char.code (String.unsafe_get s (p + d))
  else -1

let swap a i j =
  let t = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j t

(* Below this size a partition is finished by insertion sort. *)
let small = 12

let insertion_sort s a lo hi d =
  for i = lo + 1 to hi - 1 do
    let v = a.(i) in
    let j = ref i in
    while !j > lo && compare_from s d a.(!j - 1) v > 0 do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- v
  done

let median3 x y z =
  if x < y then (if y < z then y else if x < z then z else x)
  else if x < z then x
  else if y < z then z
  else y

(* Bentley–Sedgewick multikey quicksort ("Fast Algorithms for Sorting
   and Searching Strings", SODA 1997), depth-capped at [prefix_cap].
   Sorts [a.(lo) .. a.(hi-1)], whose suffixes all share their first [d]
   bytes, by partitioning three ways on the byte at depth [d]: a shared
   prefix is read once per partition instead of once per comparison.
   The equal part moves one byte deeper; of the smaller and larger
   parts, the smaller is recursed on and the larger looped on, so the
   stack holds O(log w + prefix_cap) frames. *)
let rec mkqs s a lo hi d =
  if hi - lo > 1 && d < prefix_cap then
    if hi - lo < small then insertion_sort s a lo hi d
    else begin
      let n = hi - lo in
      let mid = lo + (n / 2) in
      let k i = key s (Array.unsafe_get a i) d in
      (* pivot: median of 3, or Tukey's ninther on larger parts *)
      let v =
        if n > 64 then
          let e = n / 8 in
          median3
            (median3 (k lo) (k (lo + e)) (k (lo + (2 * e))))
            (median3 (k (mid - e)) (k mid) (k (mid + e)))
            (median3 (k (hi - 1 - (2 * e))) (k (hi - 1 - e)) (k (hi - 1)))
        else median3 (k lo) (k mid) (k (hi - 1))
      in
      (* Dijkstra partition: [lo,lt) < v, [lt,i) = v, (gt,hi) > v *)
      let lt = ref lo and i = ref lo and gt = ref (hi - 1) in
      while !i <= !gt do
        let c = key s (Array.unsafe_get a !i) d in
        if c < v then begin
          swap a !lt !i;
          incr lt;
          incr i
        end
        else if c > v then begin
          swap a !i !gt;
          decr gt
        end
        else incr i
      done;
      let lt = !lt and gt = !gt + 1 in
      (* a key of -1 is the end of text: that part is one suffix *)
      if v >= 0 then mkqs s a lt gt (d + 1);
      if lt - lo < hi - gt then begin
        mkqs s a lo lt d;
        mkqs s a gt hi d
      end
      else begin
        mkqs s a gt hi d;
        mkqs s a lo lt d
      end
    end

let sort s a = mkqs s a 0 (Array.length a) 0

let build text =
  let order = Tokenizer.word_starts text in
  sort (Text.unsafe_contents text) order;
  { text; order }

let order t = Array.copy t.order
let size t = Array.length t.order

(* Extend an array built over the first [old_len] bytes to the whole of
   [new_text] (whose prefix of length [old_len] must equal the old
   text).  Appending bytes cannot change whether a position < old_len
   is a word start (that depends on bytes p-1 and p only), and it
   cannot change the sort key of a position whose capped comparison
   window [p, p+prefix_cap) lies entirely inside the unchanged prefix:
   such windows never reached the old end of text either, so those
   entries keep their relative order.  Only the positions near the old
   end (window crossing old_len) and the word starts of the appended
   tail need sorting — a merge then rebuilds the full order without
   re-sorting the untouched bulk. *)
let extend t new_text ~old_len =
  if old_len <> Text.length t.text then
    invalid_arg "Suffix_array.extend: old_len does not match the indexed text";
  let s = Text.unsafe_contents new_text in
  let kept =
    Array.of_seq
      (Seq.filter (fun p -> p + prefix_cap <= old_len) (Array.to_seq t.order))
  in
  let affected = ref [] in
  Array.iter
    (fun p -> if p + prefix_cap > old_len then affected := p :: !affected)
    t.order;
  for p = Text.length new_text - 1 downto old_len do
    if Tokenizer.is_word_start new_text p then affected := p :: !affected
  done;
  let affected = Array.of_list !affected in
  sort s affected;
  let n_kept = Array.length kept and n_aff = Array.length affected in
  let order = Array.make (n_kept + n_aff) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to n_kept + n_aff - 1 do
    let take_kept =
      !j >= n_aff
      || (!i < n_kept && compare_suffixes s kept.(!i) affected.(!j) <= 0)
    in
    if take_kept then begin
      order.(k) <- kept.(!i);
      incr i
    end
    else begin
      order.(k) <- affected.(!j);
      incr j
    end
  done;
  { text = new_text; order }

(* -1 when the suffix at [pos] is smaller than every string with prefix
   [pattern], 0 when [pattern] is a prefix of the suffix, 1 otherwise. *)
let compare_prefix s pos pattern =
  let n = String.length s and m = String.length pattern in
  let rec go k =
    if k >= m then 0
    else if pos + k >= n then -1
    else
      let c = Char.compare s.[pos + k] pattern.[k] in
      if c <> 0 then c else go (k + 1)
  in
  go 0

let bounds t pattern =
  let s = Text.unsafe_contents t.text in
  let n = Array.length t.order in
  let rec lower lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_prefix s t.order.(mid) pattern < 0 then lower (mid + 1) hi
      else lower lo mid
  in
  let rec upper lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_prefix s t.order.(mid) pattern <= 0 then upper (mid + 1) hi
      else upper lo mid
  in
  let lo = lower 0 n in
  let hi = upper lo n in
  (lo, hi)

(* Occurrence test for the (rare) patterns longer than the sort cap. *)
let occurs_at s pos pattern =
  let m = String.length pattern in
  pos + m <= String.length s && String.sub s pos m = pattern

let find t pattern =
  Stdx.Stats.(incr word_lookups);
  let out =
    if String.length pattern <= prefix_cap then begin
      let lo, hi = bounds t pattern in
      Array.sub t.order lo (hi - lo)
    end
    else begin
      (* search by the capped prefix, then filter the survivors *)
      let s = Text.unsafe_contents t.text in
      let lo, hi = bounds t (String.sub pattern 0 prefix_cap) in
      Array.of_list
        (List.filter
           (fun p -> occurs_at s p pattern)
           (Array.to_list (Array.sub t.order lo (hi - lo))))
    end
  in
  Array.sort compare out;
  out

let find_word t pattern =
  let positions = find t pattern in
  let m = String.length pattern in
  if m = 0 || not (Tokenizer.is_word_char pattern.[m - 1]) then positions
  else
    Stdx.Sorted_array.filter
      (fun p -> Tokenizer.is_word_end t.text (p + m))
      positions

let count t pattern =
  if String.length pattern <= prefix_cap then begin
    Stdx.Stats.(incr word_lookups);
    let lo, hi = bounds t pattern in
    hi - lo
  end
  else Array.length (find t pattern)
