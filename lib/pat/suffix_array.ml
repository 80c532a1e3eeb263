(* A lazily collected, lazily sorted PAT array.  Bucket [b] holds the
   word starts whose first byte is [b], in one of three states: not
   collected yet, collected (in position order), or sorted (in suffix
   order).  The first search that needs a bucket collects it if need
   be and sorts it in place ([sorted]), so a query pays only for the
   buckets its words land in.  Concatenated, the sorted buckets are the
   full suffix order, since every word start's first byte is its
   bucket.  Collections and sorts run under [lock] and are published by
   setting the bucket's atomic cell: the serve daemon shares one array
   across domains, and the stdlib's [Lazy] is not domain-safe.  A
   collected bucket's array is only read or written under [lock]; a
   sorted one is never written again. *)
type bucket = Uncollected | Collected of int array | Sorted of int array

type t = {
  text : Text.t;
  buckets : bucket Atomic.t array; (* one per first byte *)
  mutable scans : int; (* one-byte collection scans so far, under [lock] *)
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

(* Whole-text passes that collect word starts: a one-byte scan and a
   grouped pass count one each. *)
let passes = Obs.Metrics.counter "pat.word_start_passes"

(* One-byte scans an array may spend before the next collection groups
   every remaining bucket at once: a query's few lookups scan, and the
   worst case stays one grouped pass plus two scans. *)
let max_scans = 2

(* Counting sort by first byte of the positions [iter] enumerates (in
   increasing order, twice: count, then fill): one array per first
   byte, each ascending. *)
let group s iter =
  let count = Array.make buckets 0 in
  let bucket p = Char.code (String.unsafe_get s p) in
  iter (fun p ->
      let b = bucket p in
      count.(b) <- count.(b) + 1);
  let out = Array.map (fun n -> Array.make n 0) count in
  let next = Array.make buckets 0 in
  iter (fun p ->
      let b = bucket p in
      Array.unsafe_set out.(b) next.(b) p;
      next.(b) <- next.(b) + 1);
  out

(* The word starts whose first byte is the word byte [c], ascending:
   one compare per byte of the text, and a look at the byte before
   each hit. *)
let scan s c =
  let out = ref (Array.make 64 0) and k = ref 0 in
  for i = 0 to String.length s - 1 do
    if
      String.unsafe_get s i = c
      && (i = 0 || not (Tokenizer.is_word_char (String.unsafe_get s (i - 1))))
    then begin
      if !k = Array.length !out then begin
        let bigger = Array.make (2 * !k) 0 in
        Array.blit !out 0 bigger 0 !k;
        out := bigger
      end;
      Array.unsafe_set !out !k i;
      incr k
    end
  done;
  Array.sub !out 0 !k

(* Only word bytes start words: every other bucket is born sorted and
   empty, so searches for such a byte collect nothing. *)
let build text =
  {
    text;
    buckets =
      Array.init buckets (fun b ->
          Atomic.make
            (if Tokenizer.is_word_char (Char.chr b) then Uncollected
             else Sorted [||]));
    scans = 0;
    lock = Mutex.create ();
  }

let uncollected c = match Atomic.get c with Uncollected -> true | _ -> false

(* Collect every bucket not collected yet, in one grouped pass, and
   return the pass's per-byte arrays.  Runs under [t.lock]. *)
let collect_all t =
  Obs.Metrics.incr passes;
  let grouped =
    group (Text.unsafe_contents t.text) (Tokenizer.iter_word_starts t.text)
  in
  Array.iteri
    (fun b c -> if uncollected c then Atomic.set c (Collected grouped.(b)))
    t.buckets;
  grouped

(* Collect the uncollected bucket [b]: a one-byte scan while the array
   has scans left, else the grouped pass.  Runs under [t.lock]. *)
let collect t b =
  if t.scans < max_scans then begin
    t.scans <- t.scans + 1;
    Obs.Metrics.incr passes;
    scan (Text.unsafe_contents t.text) (Char.chr b)
  end
  else (collect_all t).(b)

(* Bucket [b] in suffix order, collected and sorted first if need be
   (double-checked: the cell is read without the lock, and set only
   after the sort it publishes).  Its entries share byte 0, so the sort
   starts at depth 1. *)
let sorted t b =
  match Atomic.get t.buckets.(b) with
  | Sorted a -> a
  | Uncollected | Collected _ ->
      Mutex.protect t.lock (fun () ->
          let publish a =
            mkqs (Text.unsafe_contents t.text) a 0 (Array.length a) 1;
            Atomic.set t.buckets.(b) (Sorted a);
            a
          in
          match Atomic.get t.buckets.(b) with
          | Sorted a -> a
          | Collected a -> publish a
          | Uncollected -> publish (collect t b))

let collected_slots t =
  Array.fold_left
    (fun n c ->
      match Atomic.get c with
      | Uncollected -> n
      | Collected a | Sorted a -> n + Array.length a)
    0 t.buckets

let order t =
  Mutex.protect t.lock (fun () ->
      if Array.exists uncollected t.buckets then ignore (collect_all t));
  Array.concat (List.init buckets (sorted t))

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
   entries keep their relative order.  A bucket not collected yet stays
   so; a collected one takes the tail's word starts at its end and
   stays in position order; a sorted one re-sorts only its entries near
   the old end (window crossing old_len) and the tail's, then merges
   them with the untouched bulk.  The old array is read under its lock
   (a collected bucket is copied there, since a search may yet sort it
   in place) and never written: pinned snapshots keep searching it. *)
let extend t new_text ~old_len =
  if old_len <> Text.length t.text then
    invalid_arg "Suffix_array.extend: old_len does not match the indexed text";
  let s = Text.unsafe_contents new_text in
  let tail = group s (Tokenizer.iter_word_starts ~from:old_len new_text)
  in
  let grown =
    Mutex.protect t.lock (fun () ->
        Array.mapi
          (fun b c ->
            match Atomic.get c with
            | Collected a -> Collected (Array.append a tail.(b))
            | state -> state)
          t.buckets)
  in
  let resorted b = function
    | Sorted a ->
        let all = Array.append a tail.(b) in
        resort s all 0 (Array.length a) (Array.length all) ~old_len;
        Sorted all
    | state -> state
  in
  {
    text = new_text;
    buckets = Array.mapi (fun b state -> Atomic.make (resorted b state)) grown;
    scans = 0;
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

(* The sorted bucket of the non-empty [pattern]'s first byte and the
   range of it whose sistrings start with [pattern]: two binary
   searches. *)
let bounds t pattern =
  let a = sorted t (Char.code pattern.[0]) in
  let s = Text.unsafe_contents t.text in
  let rec lower lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_prefix s a.(mid) pattern < 0 then lower (mid + 1) hi
      else lower lo mid
  in
  let rec upper lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_prefix s a.(mid) pattern <= 0 then upper (mid + 1) hi
      else upper lo mid
  in
  let lo = lower 0 (Array.length a) in
  (a, lo, upper lo (Array.length a))

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
    let a, lo, hi =
      bounds t
        (if m <= prefix_cap then pattern else String.sub pattern 0 prefix_cap)
    in
    let out = Array.sub a lo (hi - lo) in
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
    if m = 0 then Array.length (Tokenizer.word_starts t.text)
    else
      let _, lo, hi = bounds t pattern in
      hi - lo
  end
