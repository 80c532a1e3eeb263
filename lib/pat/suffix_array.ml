(* A lazily sorted PAT array.  [order] holds every word start, grouped
   by first byte: bucket [b] is [order.(lo.(b)) .. order.(lo.(b+1)-1)].
   A bucket stays in position order until the first search that needs
   it sorts it in place ([ensure]), so a query pays only for the
   buckets its words land in.  Concatenated, the sorted buckets are the
   full suffix order, since every word start's first byte is its bucket.
   Sorts run under [lock] and are published by setting [sorted.(b)]:
   the serve daemon shares one array across domains, and the stdlib's
   [Lazy] is not domain-safe. *)
type t = {
  text : Text.t;
  order : int array;
  lo : int array; (* [buckets + 1] offsets into [order] *)
  sorted : bool Atomic.t array; (* one per bucket *)
  lock : Mutex.t;
}

let buckets = 256

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

(* Counting sort by first byte of the positions [iter] enumerates (in
   increasing order, twice: count, then fill): the grouped positions,
   each bucket still ascending, and the bucket offsets. *)
let group s iter =
  let lo = Array.make (buckets + 1) 0 in
  let bucket p = Char.code (String.unsafe_get s p) in
  iter (fun p -> lo.(bucket p + 1) <- lo.(bucket p + 1) + 1);
  for b = 1 to buckets do
    lo.(b) <- lo.(b) + lo.(b - 1)
  done;
  let next = Array.sub lo 0 buckets in
  let order = Array.make lo.(buckets) 0 in
  iter (fun p ->
      let b = bucket p in
      Array.unsafe_set order next.(b) p;
      next.(b) <- next.(b) + 1);
  (order, lo)

let build text =
  let order, lo =
    group (Text.unsafe_contents text) (Tokenizer.iter_word_starts text)
  in
  {
    text;
    order;
    lo;
    sorted = Array.init buckets (fun _ -> Atomic.make false);
    lock = Mutex.create ();
  }

(* Sort bucket [b] unless it already is (double-checked: the flag is
   read without the lock, and set only after the sort it publishes).
   Its entries share byte 0, so the sort starts at depth 1. *)
let ensure t b =
  if not (Atomic.get t.sorted.(b)) then
    Mutex.protect t.lock (fun () ->
        if not (Atomic.get t.sorted.(b)) then begin
          mkqs (Text.unsafe_contents t.text) t.order t.lo.(b) t.lo.(b + 1) 1;
          Atomic.set t.sorted.(b) true
        end)

let order t =
  for b = 0 to buckets - 1 do
    ensure t b
  done;
  Array.copy t.order

let size t = Array.length t.order

(* Restore suffix order over [a.(lo) .. a.(hi-1)] of a grown text:
   [a.(lo) .. a.(mid-1)] are a bucket's old entries in their old suffix
   order, [a.(mid) .. a.(hi-1)] its entries from the appended tail. *)
let resort s a lo mid hi ~old_len =
  let crosses p = p + prefix_cap > old_len in
  let old = Array.sub a lo (mid - lo) in
  let kept = Stdx.Sorted_array.filter (fun p -> not (crosses p)) old in
  let affected =
    Array.append
      (Stdx.Sorted_array.filter crosses old)
      (Array.sub a mid (hi - mid))
  in
  mkqs s affected 0 (Array.length affected) 1;
  let n_kept = Array.length kept and n_aff = Array.length affected in
  let i = ref 0 and j = ref 0 in
  for k = lo to hi - 1 do
    let take_kept =
      !j >= n_aff
      || (!i < n_kept && compare_from s 1 kept.(!i) affected.(!j) <= 0)
    in
    if take_kept then begin
      a.(k) <- kept.(!i);
      incr i
    end
    else begin
      a.(k) <- affected.(!j);
      incr j
    end
  done

(* Extend an array built over the first [old_len] bytes to the whole of
   [new_text] (whose prefix of length [old_len] must equal the old
   text).  Appending bytes cannot change whether a position < old_len
   is a word start (that depends on bytes p-1 and p only), and it
   cannot change the sort key of a position whose capped comparison
   window [p, p+prefix_cap) lies entirely inside the unchanged prefix:
   such windows never reached the old end of text either, so those
   entries keep their relative order.  An unsorted bucket takes the
   tail's word starts at its end and stays in position order; a sorted
   one re-sorts only its entries near the old end (window crossing
   old_len) and the tail's, then merges them with the untouched bulk.
   The old array is read under its lock and never written: pinned
   snapshots keep searching it. *)
let extend t new_text ~old_len =
  if old_len <> Text.length t.text then
    invalid_arg "Suffix_array.extend: old_len does not match the indexed text";
  let s = Text.unsafe_contents new_text in
  let tail, tail_lo =
    group s (fun f ->
        for p = old_len to Text.length new_text - 1 do
          if Tokenizer.is_word_start new_text p then f p
        done)
  in
  let lo = Array.init (buckets + 1) (fun b -> t.lo.(b) + tail_lo.(b)) in
  let order = Array.make lo.(buckets) 0 in
  let was_sorted =
    Mutex.protect t.lock (fun () ->
        for b = 0 to buckets - 1 do
          Array.blit t.order t.lo.(b) order lo.(b) (t.lo.(b + 1) - t.lo.(b))
        done;
        Array.map Atomic.get t.sorted)
  in
  for b = 0 to buckets - 1 do
    let mid = lo.(b) + (t.lo.(b + 1) - t.lo.(b)) in
    Array.blit tail tail_lo.(b) order mid (lo.(b + 1) - mid);
    if was_sorted.(b) then resort s order lo.(b) mid lo.(b + 1) ~old_len
  done;
  {
    text = new_text;
    order;
    lo;
    sorted = Array.map Atomic.make was_sorted;
    lock = Mutex.create ();
  }

(* -1 when the suffix at [pos] is smaller than every string with prefix
   [pattern], 0 when [pattern] is a prefix of the suffix, 1 otherwise.
   Only called within the pattern's bucket, so byte 0 already matches. *)
let compare_prefix s pos pattern =
  let n = String.length s and m = String.length pattern in
  let rec go k =
    if k >= m then 0
    else if pos + k >= n then -1
    else
      let c = Char.compare s.[pos + k] pattern.[k] in
      if c <> 0 then c else go (k + 1)
  in
  go 1

(* The range of [order] whose sistrings start with the non-empty
   [pattern]: two binary searches inside its first byte's bucket,
   sorted first if need be.  An empty bucket (every first byte that is
   not a word character) sorts nothing. *)
let bounds t pattern =
  let b = Char.code pattern.[0] in
  let first = t.lo.(b) and last = t.lo.(b + 1) in
  if first = last then (first, first)
  else begin
    ensure t b;
    let s = Text.unsafe_contents t.text in
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
    let lo = lower first last in
    (lo, upper lo last)
  end

(* Occurrence test for the (rare) patterns longer than the sort cap. *)
let occurs_at s pos pattern =
  let m = String.length pattern in
  pos + m <= String.length s && String.sub s pos m = pattern

let find t pattern =
  Stdx.Stats.(incr word_lookups);
  let m = String.length pattern in
  (* the empty pattern needs no bucket: every word start, in order *)
  if m = 0 then Tokenizer.word_starts t.text
  else begin
    let lo, hi =
      bounds t
        (if m <= prefix_cap then pattern else String.sub pattern 0 prefix_cap)
    in
    let out = Array.sub t.order lo (hi - lo) in
    let out =
      if m <= prefix_cap then out
      else begin
        (* searched by the capped prefix: filter the survivors *)
        let s = Text.unsafe_contents t.text in
        Stdx.Sorted_array.filter (fun p -> occurs_at s p pattern) out
      end
    in
    Array.sort Int.compare out;
    out
  end

let find_word t pattern =
  let positions = find t pattern in
  let m = String.length pattern in
  if m = 0 || not (Tokenizer.is_word_char pattern.[m - 1]) then positions
  else
    Stdx.Sorted_array.filter
      (fun p -> Tokenizer.is_word_end t.text (p + m))
      positions

let count t pattern =
  let m = String.length pattern in
  if m > prefix_cap then Array.length (find t pattern)
  else begin
    Stdx.Stats.(incr word_lookups);
    if m = 0 then size t
    else
      let lo, hi = bounds t pattern in
      hi - lo
  end
