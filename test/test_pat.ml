(* Tests for the PAT engine: suffix array, word index, region sets and
   the region-algebra operators, checked against naive reference
   implementations on random inputs. *)

open Pat

(* ------------------------------------------------------------------ *)
(* Naive reference semantics for the region operators.                 *)

module Naive = struct
  let mem_list rs r = List.exists (Region.equal r) rs

  let including r s =
    List.filter (fun x -> List.exists (fun y -> Region.includes x y) s) r

  let included r s =
    List.filter (fun x -> List.exists (fun y -> Region.includes y x) s) r

  let blocked ctx outer inner =
    List.exists
      (fun u ->
        Region.strictly_includes outer u
        && Region.strictly_includes u inner
        && (not (Region.equal u outer))
        && not (Region.equal u inner))
      ctx

  let directly_including ctx r s =
    List.filter
      (fun x ->
        List.exists
          (fun y -> Region.includes x y && not (blocked ctx x y))
          s)
      r

  let directly_included ctx r s =
    List.filter
      (fun x ->
        List.exists
          (fun y -> Region.includes y x && not (blocked ctx y x))
          s)
      r

  let directly_including_strict ctx r s =
    List.filter
      (fun x ->
        List.exists
          (fun y -> Region.strictly_includes x y && not (blocked ctx x y))
          s)
      r

  let including_strict r s =
    List.filter
      (fun x -> List.exists (fun y -> Region.strictly_includes x y) s)
      r

  let included_strict r s =
    List.filter
      (fun x -> List.exists (fun y -> Region.strictly_includes y x) s)
      r

  let innermost r =
    List.filter
      (fun x ->
        not
          (List.exists
             (fun y -> (not (Region.equal x y)) && Region.includes x y)
             r))
      r

  let outermost r =
    List.filter
      (fun x ->
        not
          (List.exists
             (fun y -> (not (Region.equal x y)) && Region.includes y x)
             r))
      r

  let _ = mem_list
end

(* Random region-set generator: positions bounded so that inclusion and
   overlap happen often. *)
let region_gen =
  QCheck.Gen.(
    map2
      (fun a b -> Region.make ~start:(min a b) ~stop:(max a b))
      (int_bound 40) (int_bound 40))

let region_list_gen = QCheck.Gen.(list_size (int_bound 25) region_gen)

let print_regions rs =
  String.concat ";"
    (List.map (fun (r : Region.t) -> Printf.sprintf "[%d,%d)" r.start r.stop) rs)

let arb_regions = QCheck.make ~print:print_regions region_list_gen

let arb_regions3 =
  QCheck.(
    make
      ~print:(fun (a, b, c) ->
        Printf.sprintf "(%s | %s | %s)" (print_regions a) (print_regions b)
          (print_regions c))
      QCheck.Gen.(triple region_list_gen region_list_gen region_list_gen))

let set = Region_set.of_list
let as_sorted_list rs = Region_set.to_list (Region_set.of_list rs)

(* ------------------------------------------------------------------ *)
(* Region unit tests                                                   *)

let region_tests =
  [
    Alcotest.test_case "compare orders enclosing first" `Quick (fun () ->
        let outer = Region.make ~start:0 ~stop:10 in
        let inner = Region.make ~start:0 ~stop:4 in
        Alcotest.(check bool) "outer first" true (Region.compare outer inner < 0));
    Alcotest.test_case "includes is non-strict" `Quick (fun () ->
        let r = Region.make ~start:2 ~stop:8 in
        Alcotest.(check bool) "self" true (Region.includes r r);
        Alcotest.(check bool) "strict self" false (Region.strictly_includes r r));
    Alcotest.test_case "make rejects inverted interval" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Region.make: invalid interval [5,3)") (fun () ->
            ignore (Region.make ~start:5 ~stop:3)));
    Alcotest.test_case "contains_point boundary" `Quick (fun () ->
        let r = Region.make ~start:2 ~stop:5 in
        Alcotest.(check bool) "start in" true (Region.contains_point r 2);
        Alcotest.(check bool) "stop out" false (Region.contains_point r 5));
    Alcotest.test_case "overlaps" `Quick (fun () ->
        let a = Region.make ~start:0 ~stop:5 in
        let b = Region.make ~start:4 ~stop:9 in
        let c = Region.make ~start:5 ~stop:9 in
        Alcotest.(check bool) "touching intervals overlap" true
          (Region.overlaps a b);
        Alcotest.(check bool) "adjacent do not" false (Region.overlaps a c));
  ]

(* ------------------------------------------------------------------ *)
(* Region_set properties                                               *)

let eq_sets got want =
  Region_set.equal got (Region_set.of_list want)

let region_set_props =
  [
    QCheck.Test.make ~name:"including matches naive" ~count:500 arb_regions3
      (fun (r, s, _) ->
        eq_sets (Region_set.including (set r) (set s))
          (Naive.including (as_sorted_list r) (as_sorted_list s)));
    QCheck.Test.make ~name:"included matches naive" ~count:500 arb_regions3
      (fun (r, s, _) ->
        eq_sets (Region_set.included (set r) (set s))
          (Naive.included (as_sorted_list r) (as_sorted_list s)));
    QCheck.Test.make ~name:"directly_including matches naive" ~count:500
      arb_regions3 (fun (r, s, c) ->
        let ctx = as_sorted_list (r @ s @ c) in
        eq_sets
          (Support.Scan.directly_including ~context:(set ctx) (set r) (set s))
          (Naive.directly_including ctx (as_sorted_list r) (as_sorted_list s)));
    QCheck.Test.make ~name:"directly_included matches naive" ~count:500
      arb_regions3 (fun (r, s, c) ->
        let ctx = as_sorted_list (r @ s @ c) in
        eq_sets
          (Support.Scan.directly_included ~context:(set ctx) (set r) (set s))
          (Naive.directly_included ctx (as_sorted_list r) (as_sorted_list s)));
    QCheck.Test.make ~name:"including_strict matches naive" ~count:500
      arb_regions3 (fun (r, s, _) ->
        eq_sets
          (Region_set.including_strict (set r) (set s))
          (Naive.including_strict (as_sorted_list r) (as_sorted_list s)));
    QCheck.Test.make ~name:"included_strict matches naive" ~count:500
      arb_regions3 (fun (r, s, _) ->
        eq_sets
          (Region_set.included_strict (set r) (set s))
          (Naive.included_strict (as_sorted_list r) (as_sorted_list s)));
    QCheck.Test.make ~name:"directly_including_strict matches naive" ~count:500
      arb_regions3 (fun (r, s, c) ->
        let ctx = as_sorted_list (r @ s @ c) in
        eq_sets
          (Support.Scan.directly_including_strict ~context:(set ctx) (set r)
             (set s))
          (Naive.directly_including_strict ctx (as_sorted_list r)
             (as_sorted_list s)));
    QCheck.Test.make ~name:"strict excludes self-matches" ~count:300
      arb_regions (fun r ->
        let s = set r in
        let strict = Region_set.including_strict s s in
        (* an element is kept only if it strictly contains another *)
        List.for_all
          (fun x ->
            List.exists
              (fun y -> Region.strictly_includes x y)
              (Region_set.to_list s))
          (Region_set.to_list strict));
    QCheck.Test.make ~name:"innermost matches naive" ~count:500 arb_regions
      (fun r ->
        eq_sets (Region_set.innermost (set r)) (Naive.innermost (as_sorted_list r)));
    QCheck.Test.make ~name:"outermost matches naive" ~count:500 arb_regions
      (fun r ->
        eq_sets (Region_set.outermost (set r)) (Naive.outermost (as_sorted_list r)));
    QCheck.Test.make ~name:"direct inclusion implies inclusion" ~count:300
      arb_regions3 (fun (r, s, c) ->
        let ctx = set (r @ s @ c) in
        Region_set.subset
          (Support.Scan.directly_including ~context:ctx (set r) (set s))
          (Region_set.including (set r) (set s)));
    QCheck.Test.make ~name:"R ⊃ R = R (non-strict inclusion)" ~count:300
      arb_regions (fun r ->
        Region_set.equal (Region_set.including (set r) (set r)) (set r));
    QCheck.Test.make ~name:"innermost is a fixpoint" ~count:300 arb_regions
      (fun r ->
        let i = Region_set.innermost (set r) in
        Region_set.equal (Region_set.innermost i) i);
    QCheck.Test.make ~name:"outermost is a fixpoint" ~count:300 arb_regions
      (fun r ->
        let o = Region_set.outermost (set r) in
        Region_set.equal (Region_set.outermost o) o);
    QCheck.Test.make ~name:"union/inter/diff are set ops" ~count:300
      arb_regions3 (fun (a, b, _) ->
        let sa = set a and sb = set b in
        let u = Region_set.union sa sb
        and i = Region_set.inter sa sb
        and d = Region_set.diff sa sb in
        Region_set.subset i sa && Region_set.subset i sb
        && Region_set.subset sa u && Region_set.subset sb u
        && Region_set.subset d sa
        && Region_set.is_empty (Region_set.inter d sb));
    QCheck.Test.make ~name:"of_pairs == of_list (sorted or not, duplicates)"
      ~count:300 arb_regions (fun rs ->
        let pairs = List.map (fun (r : Region.t) -> (r.start, r.stop)) rs in
        let set = Region_set.of_list rs in
        Region_set.equal (Region_set.of_pairs pairs) set
        && Region_set.equal (Region_set.of_pairs (pairs @ pairs)) set
        && Region_set.equal
             (Region_set.of_pairs
                (List.map
                   (fun (r : Region.t) -> (r.start, r.stop))
                   (Region_set.to_list set)))
             set);
    QCheck.Test.make ~name:"count_strictly_between matches naive" ~count:300
      arb_regions3 (fun (r, s, c) ->
        let ctx = as_sorted_list (r @ s @ c) in
        let ctx_set = set ctx in
        List.for_all
          (fun outer ->
            List.for_all
              (fun inner ->
                (not (Region.includes outer inner))
                ||
                let naive =
                  List.length
                    (List.filter
                       (fun u ->
                         Region.strictly_includes outer u
                         && Region.strictly_includes u inner)
                       ctx)
                in
                Support.Scan.count_strictly_between ~context:ctx_set ~outer
                  ~inner
                = naive)
              (as_sorted_list s))
          (as_sorted_list r));
  ]

let region_set_units =
  [
    Alcotest.test_case "of_list dedups" `Quick (fun () ->
        let s = Region_set.of_pairs [ (1, 3); (1, 3); (0, 5) ] in
        Alcotest.(check int) "cardinal" 2 (Region_set.cardinal s));
    Alcotest.test_case "empty behaviour" `Quick (fun () ->
        Alcotest.(check bool) "is_empty" true (Region_set.is_empty Region_set.empty);
        Alcotest.(check bool)
          "including with empty" true
          (Region_set.is_empty
             (Region_set.including Region_set.empty (Region_set.of_pairs [ (0, 1) ])));
        Alcotest.(check bool)
          "choose empty" true
          (Region_set.choose Region_set.empty = None));
    Alcotest.test_case "directly_including skips when blocked" `Quick (fun () ->
        (* outer [0,10) ⊃ mid [2,8) ⊃ inner [4,6): outer ⊃d inner fails. *)
        let outer = Region_set.of_pairs [ (0, 10) ] in
        let inner = Region_set.of_pairs [ (4, 6) ] in
        let ctx = Region_set.of_pairs [ (0, 10); (2, 8); (4, 6) ] in
        Alcotest.(check bool)
          "blocked" true
          (Region_set.is_empty
             (Support.Scan.directly_including ~context:ctx outer inner));
        let ctx_free = Region_set.of_pairs [ (0, 10); (4, 6) ] in
        Alcotest.(check bool)
          "unblocked" false
          (Region_set.is_empty
             (Support.Scan.directly_including ~context:ctx_free outer inner)));
    Alcotest.test_case "including_at_depth counts layers" `Quick (fun () ->
        let outer = Region_set.of_pairs [ (0, 10) ] in
        let inner = Region_set.of_pairs [ (4, 6) ] in
        let ctx = Region_set.of_pairs [ (0, 10); (2, 8); (3, 7); (4, 6) ] in
        Alcotest.(check bool)
          "depth 2" false
          (Region_set.is_empty
             (Support.Scan.including_at_depth ~context:ctx ~depth:2 outer inner));
        Alcotest.(check bool)
          "depth 1 empty" true
          (Region_set.is_empty
             (Support.Scan.including_at_depth ~context:ctx ~depth:1 outer inner)));
  ]

(* ------------------------------------------------------------------ *)
(* Suffix array / word index                                           *)

let naive_word_occurrences text w =
  (* positions where w occurs, starting at a word start and ending at a
     token boundary *)
  let t = Text.of_string text in
  let n = String.length text and m = String.length w in
  let out = ref [] in
  for p = n - m downto 0 do
    if
      String.sub text p m = w
      && Tokenizer.is_word_start t p
      && Tokenizer.is_word_end t (p + m)
    then out := p :: !out
  done;
  !out

let word_gen =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 4) (oneofl [ 'a'; 'b'; 'c' ])))

let text_gen =
  QCheck.Gen.(
    map
      (fun ws -> String.concat " " ws)
      (list_size (int_bound 30) word_gen))

let suffix_array_props =
  [
    QCheck.Test.make ~name:"find_word matches naive scan" ~count:300
      QCheck.(make ~print:Print.(pair string string) Gen.(pair text_gen word_gen))
      (fun (text, w) ->
        let t = Text.of_string text in
        let sa = Suffix_array.build t in
        Array.to_list (Suffix_array.find_word sa w)
        = naive_word_occurrences text w);
    QCheck.Test.make ~name:"find returns word-start prefix matches" ~count:300
      QCheck.(make ~print:Print.(pair string string) Gen.(pair text_gen word_gen))
      (fun (text, w) ->
        let t = Text.of_string text in
        let sa = Suffix_array.build t in
        let found = Suffix_array.find sa w in
        Array.for_all
          (fun p ->
            Tokenizer.is_word_start t p
            && p + String.length w <= String.length text
            && String.sub text p (String.length w) = w)
          found);
    QCheck.Test.make ~name:"count = |find|" ~count:200
      QCheck.(make ~print:Print.(pair string string) Gen.(pair text_gen word_gen))
      (fun (text, w) ->
        let sa = Suffix_array.build (Text.of_string text) in
        Suffix_array.count sa w = Array.length (Suffix_array.find sa w));
  ]

(* Adversarial texts for the sort kernel.  The texts above are a few
   short words and never reach the sort cap; these do, in the three
   shapes that make suffixes share long prefixes. *)
let cap = Suffix_array.prefix_cap

(* blocks of words repeated until the text is two to three caps long *)
let repeated_block_gen =
  QCheck.Gen.(
    map2
      (fun ws extra ->
        let block = String.concat " " ws ^ " " in
        let reps = 1 + (((2 * cap) + extra) / String.length block) in
        String.concat "" (List.init reps (fun _ -> block)))
      (list_size (int_range 1 12) word_gen)
      (int_bound cap))

let one_word_gen =
  QCheck.Gen.(
    map3
      (fun w sep k -> String.concat sep (List.init k (fun _ -> w)))
      word_gen (oneofl [ " "; "\n"; ", " ]) (int_range 1 800))

(* runs of one character up to twice the cap, between short words *)
let long_runs_gen =
  QCheck.Gen.(
    map
      (String.concat " ")
      (list_size (int_range 1 5)
         (oneof
            [
              map2 String.make (int_range 1 (2 * cap)) (oneofl [ 'a'; 'b'; '-' ]);
              word_gen;
            ])))

(* A text plus pattern seeds: a seed [(i, m)] names the substring of
   length [m] (clipped) at the [i]-th word start, so patterns hit the
   text and range past the cap; [m] mod 7 = 0 flips the last byte to
   get a near miss. *)
let adversarial_gen =
  QCheck.Gen.(
    pair
      (oneof [ repeated_block_gen; one_word_gen; long_runs_gen ])
      (list_size (int_range 1 6)
         (pair (int_bound 10_000) (int_bound ((3 * cap) / 2)))))

let arb_adversarial =
  QCheck.make
    ~print:(fun (text, seeds) ->
      Printf.sprintf "%d bytes %S... patterns %s" (String.length text)
        (String.sub text 0 (min 80 (String.length text)))
        (String.concat ";"
           (List.map (fun (i, m) -> Printf.sprintf "(%d,%d)" i m) seeds)))
    adversarial_gen

let patterns_of text seeds =
  let starts = Tokenizer.word_starts (Text.of_string text) in
  let n = String.length text in
  List.filter_map
    (fun (i, m) ->
      if Array.length starts = 0 then None
      else begin
        let p = starts.(i mod Array.length starts) in
        let pat = String.sub text p (min m (n - p)) in
        let k = String.length pat in
        if m mod 7 = 0 && k > 0 then
          Some
            (String.sub pat 0 (k - 1)
            ^ String.make 1 (if pat.[k - 1] = 'a' then 'b' else 'a'))
        else Some pat
      end)
    seeds

let naive_find text pat =
  let t = Text.of_string text in
  let n = String.length text and m = String.length pat in
  List.filter
    (fun p -> p + m <= n && String.sub text p m = pat)
    (Array.to_list (Tokenizer.word_starts t))

let naive_find_word text pat =
  let t = Text.of_string text in
  let m = String.length pat in
  let found = naive_find text pat in
  if m = 0 || not (Tokenizer.is_word_char pat.[m - 1]) then found
  else List.filter (fun p -> Tokenizer.is_word_end t (p + m)) found

(* The capped order the sort promises: first [cap] bytes, end of text
   first. *)
let capped text p = String.sub text p (min cap (String.length text - p))

let well_sorted text sa =
  let order = Suffix_array.order sa in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  sorted = Tokenizer.word_starts (Text.of_string text)
  &&
  let ok = ref true in
  for k = 1 to Array.length order - 1 do
    if compare (capped text order.(k - 1)) (capped text order.(k)) > 0 then
      ok := false
  done;
  !ok

let answers_like_naive text sa pats =
  List.for_all
    (fun pat ->
      let want = naive_find text pat in
      Array.to_list (Suffix_array.find sa pat) = want
      && Array.to_list (Suffix_array.find_word sa pat)
         = naive_find_word text pat
      && Suffix_array.count sa pat = List.length want)
    ("" :: pats)

let adversarial_props =
  [
    QCheck.Test.make ~name:"adversarial: build order is a capped sort of word_starts"
      ~count:60 arb_adversarial (fun (text, _) ->
        well_sorted text (Suffix_array.build (Text.of_string text)));
    QCheck.Test.make ~name:"adversarial: find/find_word/count match naive scan"
      ~count:60 arb_adversarial (fun (text, seeds) ->
        answers_like_naive text
          (Suffix_array.build (Text.of_string text))
          (patterns_of text seeds));
    QCheck.Test.make ~name:"adversarial: extend at a random split == build"
      ~count:60
      QCheck.(pair arb_adversarial (make Gen.(int_bound 100_000)))
      (fun ((text, seeds), split) ->
        let n = String.length text in
        let old_len = split mod (n + 1) in
        let sa =
          Suffix_array.extend
            (Suffix_array.build (Text.of_string (String.sub text 0 old_len)))
            (Text.of_string text) ~old_len
        in
        let built = Suffix_array.build (Text.of_string text) in
        let pats = patterns_of text seeds in
        well_sorted text sa
        && answers_like_naive text sa pats
        && List.for_all
             (fun pat ->
               Suffix_array.find sa pat = Suffix_array.find built pat
               && Suffix_array.find_word sa pat
                  = Suffix_array.find_word built pat)
             pats);
  ]

(* The lazily sorted array: a search sorts only its pattern's
   first-byte bucket, so the answers must not depend on which buckets
   earlier searches happened to sort.  Buckets are forced here by
   one-byte searches, a random subset in random order. *)

(* short texts over a wider alphabet than [text_gen]: capitals, digits,
   punctuation and bytes >= 0x80, so many buckets are in play *)
let mixed_text_gen =
  QCheck.Gen.(
    map
      (fun ws -> String.concat "" ws)
      (list_size (int_bound 60)
         (oneof
            [
              map
                (fun cs -> String.concat "" (List.map (String.make 1) cs))
                (list_size (int_range 1 5)
                   (oneofl [ 'a'; 'b'; 'Z'; '0'; '7'; '\xc3'; '\xa9' ]));
              oneofl [ " "; "-"; "\n"; ", "; "\xe2\x80\x94" ];
            ])))

let force_gen =
  QCheck.Gen.(
    list_size (int_bound 12)
      (oneof
         [ int_bound 255; map Char.code (oneofl [ 'a'; 'b'; 'Z'; '0'; '7' ]) ]))

let force sa bytes =
  List.iter
    (fun b -> ignore (Suffix_array.count sa (String.make 1 (Char.chr b))))
    bytes

(* the patterns every lazy check adds: none of them may sort a bucket
   wrongly or answer from an unsorted one *)
let edge_patterns =
  [ "-a"; " "; "\x80"; "\xc3\xa9"; "Z"; "0"; String.make (cap + 3) 'a' ]

let arb_lazy =
  QCheck.make
    ~print:(fun ((text, seeds), bytes) ->
      Printf.sprintf "%d bytes %S... patterns %s forced %s" (String.length text)
        (String.sub text 0 (min 80 (String.length text)))
        (String.concat ";"
           (List.map (fun (i, m) -> Printf.sprintf "(%d,%d)" i m) seeds))
        (String.concat "," (List.map string_of_int bytes)))
    QCheck.Gen.(
      pair
        (oneof
           [
             adversarial_gen;
             pair mixed_text_gen
               (list_size (int_range 1 6)
                  (pair (int_bound 10_000) (int_bound 8)));
           ])
        force_gen)

let lazy_props =
  [
    QCheck.Test.make ~name:"lazy: answers match naive after partial forcing"
      ~count:150 arb_lazy (fun ((text, seeds), bytes) ->
        let sa = Suffix_array.build (Text.of_string text) in
        force sa bytes;
        answers_like_naive text sa (edge_patterns @ patterns_of text seeds)
        && well_sorted text sa);
    QCheck.Test.make
      ~name:"lazy: extend of a partly sorted array == build; old unchanged"
      ~count:100
      QCheck.(pair arb_lazy (make Gen.(int_bound 100_000)))
      (fun (((text, seeds), bytes), split) ->
        let n = String.length text in
        let old_len = split mod (n + 1) in
        let old_text = String.sub text 0 old_len in
        let old = Suffix_array.build (Text.of_string old_text) in
        force old bytes;
        let pats = edge_patterns @ patterns_of text seeds in
        List.iter (fun pat -> ignore (Suffix_array.find old pat)) pats;
        let sa = Suffix_array.extend old (Text.of_string text) ~old_len in
        let built = Suffix_array.build (Text.of_string text) in
        let same pat =
          Suffix_array.find sa pat = Suffix_array.find built pat
          && Suffix_array.find_word sa pat = Suffix_array.find_word built pat
          && Suffix_array.count sa pat = Suffix_array.count built pat
        in
        List.for_all same pats
        && answers_like_naive text sa pats
        && answers_like_naive old_text old pats
        && well_sorted text sa
        && well_sorted old_text old);
  ]

(* Collection: a bucket's word starts are gathered by its first search,
   by a one-byte scan for an array's first two buckets and by one
   grouped pass for the rest.  Up to four distinct word bytes are
   forced here (bytes absent from the text included), so arrays end
   with buckets uncollected, scanned and grouped, and an array may be
   extended before any collection: each bucket's state must carry over
   the append. *)
let collect_gen =
  QCheck.Gen.(
    int_bound 4 >>= fun k ->
    map
      (fun (bytes, exts) -> List.combine (List.filteri (fun i _ -> i < k) bytes) exts)
      (pair
         (shuffle_l [ 'a'; 'b'; 'Z'; '0'; '7'; 'q' ])
         (list_repeat k bool)))

let arb_collect =
  QCheck.make
    ~print:(fun (((text, _), steps), split) ->
      Printf.sprintf "%d bytes %S... split %d steps %s" (String.length text)
        (String.sub text 0 (min 80 (String.length text)))
        split
        (String.concat ","
           (List.map (fun (c, ext) -> Printf.sprintf "%s%C" (if ext then "extend;" else "") c) steps)))
    QCheck.Gen.(
      pair
        (pair
           (oneof
              [
                adversarial_gen;
                pair mixed_text_gen
                  (list_size (int_range 1 6)
                     (pair (int_bound 10_000) (int_bound 8)));
              ])
           collect_gen)
        (int_bound 100_000))

let collect_props =
  [
    QCheck.Test.make
      ~name:"lazy: collections by scan and grouped pass, extended between == build"
      ~count:150 arb_collect (fun (((text, seeds), steps), split) ->
        let n = String.length text in
        let start = split mod (n + 1) in
        let n_ext = List.length (List.filter snd steps) + 1 in
        (* the i-th extension grows the text to [len i]; the last to n *)
        let len i = start + ((n - start) * i / n_ext) in
        let prefix l = String.sub text 0 l in
        let pats = edge_patterns @ patterns_of text seeds in
        let arrays = ref [ (start, Suffix_array.build (Text.of_string (prefix start))) ] in
        let grow i =
          let l, sa = List.hd !arrays in
          arrays :=
            (len i, Suffix_array.extend sa (Text.of_string (prefix (len i))) ~old_len:l)
            :: !arrays
        in
        let exts = ref 0 in
        List.iter
          (fun (c, ext) ->
            if ext then begin
              incr exts;
              grow !exts
            end;
            force (snd (List.hd !arrays)) [ Char.code c ])
          steps;
        grow n_ext;
        let sa = snd (List.hd !arrays) in
        let built = Suffix_array.build (Text.of_string text) in
        List.for_all
          (fun pat ->
            Suffix_array.find sa pat = Suffix_array.find built pat
            && Suffix_array.find_word sa pat = Suffix_array.find_word built pat
            && Suffix_array.count sa pat = Suffix_array.count built pat)
          pats
        (* every array, the superseded ones too, still answers for its
           own prefix *)
        && List.for_all
             (fun (l, sa) ->
               answers_like_naive (prefix l) sa pats && well_sorted (prefix l) sa)
             !arrays);
  ]

(* Whole-text collection passes, as counted in the metrics registry:
   one per one-byte scan, one for the grouped pass, none for anything
   already collected, the empty pattern or a non-word byte. *)
let passes_test () =
  let counter = Obs.Metrics.counter "pat.word_start_passes" in
  let passes f =
    let before = Obs.Metrics.value counter in
    f ();
    Obs.Metrics.value counter - before
  in
  let check msg want f = Alcotest.(check int) msg want (passes f) in
  let text = "alpha beta gamma delta 2026 alpha-beta zeta" in
  let sa = Suffix_array.build (Text.of_string text) in
  let find p () = ignore (Suffix_array.find sa p) in
  check "build collects nothing" 0 (fun () ->
      ignore (Suffix_array.build (Text.of_string text)));
  check "every word start, counted" 0 (fun () ->
      Alcotest.(check int) "count" 8 (Suffix_array.count sa ""));
  check "a non-word byte" 0 (find "-");
  check "first scan" 1 (find "al");
  check "same bucket" 0 (find "alpha");
  check "second scan" 1 (find "beta");
  check "grouped pass" 1 (find "gamma");
  check "grouped already" 0 (find "2026");
  check "order after grouping" 0 (fun () -> ignore (Suffix_array.order sa));
  check "a fresh order groups once" 1 (fun () ->
      ignore (Suffix_array.order (Suffix_array.build (Text.of_string text))));
  let small = Suffix_array.build (Text.of_string text) in
  check "scan before extend" 1 (fun () -> ignore (Suffix_array.find small "z"));
  let grown =
    Suffix_array.extend small (Text.of_string (text ^ " zz omega"))
      ~old_len:(String.length text)
  in
  check "collected bucket carried over" 0 (fun () ->
      Alcotest.(check int) "z after extend" 2 (Suffix_array.count grown "z"));
  check "uncollected stays so" 1 (fun () ->
      Alcotest.(check int) "omega" 1 (Suffix_array.count grown "omega"))

(* One fresh array searched by four domains at once (same and different
   buckets, the empty pattern, counts) while a fifth extends it: every
   answer must equal the sequential one. *)
let domain_safety_test () =
  let words =
    [| "alpha"; "alpine"; "beta"; "2026"; "2027"; "07"; "00"; "Zeta"; "zz" |]
  in
  let text =
    String.concat " "
      (List.init 10_000 (fun i ->
           words.(((i * i) + (i / 7)) mod Array.length words)))
  in
  let grown = text ^ " alpha Zeta 2028 omega" in
  let pats =
    [ "alp"; "alpha"; "2026"; "07"; ""; "Z"; "zz"; "b"; "-"; "omega" ]
  in
  let answers sa pat =
    ( Suffix_array.find sa pat,
      Suffix_array.find_word sa pat,
      Suffix_array.count sa pat )
  in
  (* searchers 0 and 1 start at "alp", 2 at "alpha" in the same
     bucket, 3 at "2026"; each then runs every pattern *)
  let rotate k l =
    let k = max 0 (k - 1) in
    List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l
  in
  let expect src =
    List.map (answers (Suffix_array.build (Text.of_string src))) pats
  in
  let want = expect text and want_grown = expect grown in
  for _trial = 1 to 10 do
    let sa = Suffix_array.build (Text.of_string text) in
    (* all five domains start together *)
    let waiting = Atomic.make 5 in
    let start () =
      Atomic.decr waiting;
      while Atomic.get waiting > 0 do
        Domain.cpu_relax ()
      done
    in
    let searchers =
      List.init 4 (fun k ->
          Domain.spawn (fun () ->
              start ();
              List.map (answers sa) (rotate k pats)))
    in
    let extender =
      Domain.spawn (fun () ->
          start ();
          let ext =
            Suffix_array.extend sa (Text.of_string grown)
              ~old_len:(String.length text)
          in
          List.map (answers ext) pats)
    in
    List.iteri
      (fun k d ->
        Alcotest.(check bool)
          "searcher answers" true
          (Domain.join d = rotate k want))
      searchers;
    Alcotest.(check bool)
      "extended answers" true
      (Domain.join extender = want_grown)
  done

(* Random region windows over random texts, used to compare the indexed
   word selections against character-level scans. *)
let windows_gen =
  QCheck.Gen.(
    pair text_gen
      (list_size (int_bound 8) (pair (int_bound 60) (int_bound 60))))

let arb_windows =
  QCheck.make
    ~print:(fun (t, ws) ->
      Printf.sprintf "%S %s" t
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ws)))
    windows_gen

let clip_regions text ws =
  let n = String.length text in
  Region_set.of_pairs
    (List.filter_map
       (fun (a, b) ->
         let lo = min (min a b) n and hi = min (max a b) n in
         if lo <= hi then Some (lo, hi) else None)
       ws)

let word_selection_props =
  [
    QCheck.Test.make ~name:"select_prefix matches naive scan" ~count:300
      QCheck.(pair arb_windows (make word_gen))
      (fun ((text, ws), w) ->
        let t = Text.of_string text in
        let wi = Word_index.build t in
        let regions = clip_regions text ws in
        let got = Word_index.select_prefix wi w regions in
        let m = String.length w in
        let want =
          Region_set.filter
            (fun (r : Region.t) ->
              Region.length r >= m
              && r.start + m <= String.length text
              && String.sub text r.start m = w
              && Tokenizer.is_word_start t r.start)
            regions
        in
        Region_set.equal got want);
  ]

(* The exact and prefix selections test each region's own bytes.  The
   PAT path they replace searched the suffix array and kept the regions
   starting at a match point; both must select the same regions.  Texts
   mix word and non-word bytes and sometimes run past the sort cap (one
   word longer than it, or a repeated block); regions include the empty
   one at end of text, the whole text, duplicate and nested extents, and
   every occurrence of the pattern cut to its length and one byte past
   it; patterns are empty, cut anywhere from the text (so they may start
   or end with a non-word byte, or be longer than the cap) or not in it. *)
let region_side_sigma_props =
  let open QCheck.Gen in
  let piece = oneofl [ "a"; "ab"; "b"; "abc"; " "; "-"; "\n"; "ab-"; "-a" ] in
  let short = map (String.concat "") (list_size (int_bound 30) piece) in
  (* a long text, its patterns longer than the cap that start a word at
     [p] and their extents: the cut [len] bytes from [p], that cut run on
     to a word end, and a near miss differing from the text only in its
     last byte (past the cap: no byte of the texts is a 'z') *)
  let long_cuts text p len =
    let n = String.length text in
    let rec word_end i =
      if i < n && Tokenizer.is_word_char text.[i] then word_end (i + 1) else i
    in
    let len = min len (n - p) in
    let stop = word_end (p + len) in
    ( text,
      [
        String.sub text p len;
        String.sub text p (stop - p);
        String.sub text p (len - 1) ^ "z";
      ],
      [ (p, p + len); (p, stop) ] )
  in
  let long_word =
    map3
      (fun w k j ->
        let text = w ^ " " ^ String.make (cap + k) 'a' ^ " " ^ w in
        long_cuts text (String.length w + 1) (cap + j))
      short (int_bound 64) (int_range 1 64)
  in
  let repeated =
    map3
      (fun block k j ->
        let block = block ^ " ab" in
        let reps = ((2 * cap) + k) / String.length block + 1 in
        let text = String.concat "" (List.init reps (fun _ -> block)) in
        long_cuts text (String.length block - 2) (cap + j))
      short (int_bound cap) (int_range 1 (cap / 2))
  in
  let case =
    frequency
      [ (6, map (fun t -> (t, [], [])) short); (1, long_word); (1, repeated) ]
    >>= fun (text, long, long_extents) ->
    let n = String.length text in
    let extent =
      int_bound n >>= fun start ->
      map (fun len -> (start, start + len)) (int_bound (n - start))
    in
    let cut = map (fun (a, b) -> String.sub text a (b - a)) extent in
    let pattern =
      frequency
        ([
           (1, return "");
           (6, cut);
           (2, map2 ( ^ ) cut (oneofl [ "a"; " "; "-" ]));
           (1, map (( ^ ) "-") cut);
           (1, string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '-' ]) (int_bound 4));
         ]
        @ if long = [] then [] else [ (8, oneofl long) ])
    in
    triple (return text)
      (map (( @ ) long_extents) (list_size (int_bound 12) extent))
      pattern
  in
  let print (text, extents, w) =
    Printf.sprintf "%d bytes %S, pattern %d bytes %S, regions %s"
      (String.length text)
      (String.sub text 0 (min 80 (String.length text)))
      (String.length w)
      (String.sub w 0 (min 40 (String.length w)))
      (String.concat ";"
         (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) extents))
  in
  let regions text extents w =
    let n = String.length text and m = String.length w in
    let occurrences =
      List.concat_map
        (fun p ->
          if p + m <= n && String.sub text p m = w then
            [ (p, p + m); (p, min n (p + m + 1)) ]
          else [])
        (List.init (n + 1) Fun.id)
    in
    Region_set.of_pairs
      (((n, n) :: (0, n) :: extents) @ extents @ occurrences)
  in
  (* the positions path: match points, then keep the regions of the
     right length starting at one *)
  let via_positions points keep_length w set =
    let m = String.length w in
    Region_set.filter
      (fun (r : Region.t) ->
        keep_length (Region.length r) m
        && Stdx.Sorted_array.mem ~cmp:Int.compare points r.start)
      set
  in
  [
    QCheck.Test.make ~name:"region-side exact and prefix sigma == PAT path"
      ~count:300 (QCheck.make ~print case) (fun (text, extents, w) ->
        let wi = Word_index.build (Text.of_string text) in
        let set = regions text extents w in
        let counted f =
          let cmps = Stdx.Stats.(value region_comparisons)
          and ops = Stdx.Stats.(value index_ops)
          and lookups = Stdx.Stats.(value word_lookups) in
          let out = f () in
          ( out,
            ( Stdx.Stats.(value region_comparisons) - cmps,
              Stdx.Stats.(value index_ops) - ops,
              Stdx.Stats.(value word_lookups) - lookups ) )
        in
        let exact, exact_work =
          counted (fun () -> Word_index.select_exact wi w set)
        in
        let prefix, prefix_work =
          counted (fun () -> Word_index.select_prefix wi w set)
        in
        let work = (Region_set.cardinal set, 1, 0) in
        Region_set.equal exact
          (via_positions (Word_index.match_points wi w) ( = ) w set)
        && Region_set.equal prefix
             (via_positions (Word_index.prefix_points wi w) ( >= ) w set)
        && exact_work = work && prefix_work = work);
  ]

let sample_text = "the cat sat on the mat; the catalog was flat"

let word_index_tests =
  [
    Alcotest.test_case "exact word does not match prefix" `Quick (fun () ->
        let wi = Word_index.build (Text.of_string sample_text) in
        Alcotest.(check int) "cat occurs once" 1
          (Array.length (Word_index.match_points wi "cat"));
        Alcotest.(check int) "catalog separate" 1
          (Array.length (Word_index.match_points wi "catalog")));
    Alcotest.test_case "multi-word pattern" `Quick (fun () ->
        let wi = Word_index.build (Text.of_string sample_text) in
        Alcotest.(check int) "the cat once" 1
          (Array.length (Word_index.match_points wi "the cat ")));
    Alcotest.test_case "select_exact picks exact-extent regions" `Quick
      (fun () ->
        let text = Text.of_string "AUTHOR = Chang , EDITOR = Chang" in
        let wi = Word_index.build text in
        (* regions: the two name fields, trimmed *)
        let names = Region_set.of_pairs [ (9, 14); (26, 31) ] in
        let hit = Word_index.select_exact wi "Chang" names in
        Alcotest.(check int) "both" 2 (Region_set.cardinal hit);
        let miss = Word_index.select_exact wi "Chan" names in
        Alcotest.(check int) "prefix rejected" 0 (Region_set.cardinal miss));
    Alcotest.test_case "select_containing finds embedded word" `Quick
      (fun () ->
        let text = Text.of_string "a Chang wrote; b Corliss edited" in
        let wi = Word_index.build text in
        let halves = Region_set.of_pairs [ (0, 13); (15, 31) ] in
        let hit = Word_index.select_containing wi "Chang" halves in
        Alcotest.(check int) "first half" 1 (Region_set.cardinal hit);
        Alcotest.(check bool)
          "is first" true
          (match Region_set.choose hit with
          | Some r -> r.Region.start = 0
          | None -> false));
    Alcotest.test_case "empty text" `Quick (fun () ->
        let wi = Word_index.build (Text.of_string "") in
        Alcotest.(check int) "no matches" 0
          (Array.length (Word_index.match_points wi "x")));
    Alcotest.test_case "prefix search selects extents starting with w" `Quick
      (fun () ->
        let text = Text.of_string "Ref0012 Ref0034 Xy0012" in
        let wi = Word_index.build text in
        let tokens = Region_set.of_pairs [ (0, 7); (8, 15); (16, 22) ] in
        Alcotest.(check int) "Ref00 matches two" 2
          (Region_set.cardinal (Word_index.select_prefix wi "Ref00" tokens));
        Alcotest.(check int) "Ref0012 matches one" 1
          (Region_set.cardinal (Word_index.select_prefix wi "Ref0012" tokens));
        Alcotest.(check int) "no such prefix" 0
          (Region_set.cardinal (Word_index.select_prefix wi "Zz" tokens));
        (* prefix must start at the region start, not merely occur *)
        let whole = Region_set.of_pairs [ (0, 22) ] in
        Alcotest.(check int) "whole text starts with Ref" 1
          (Region_set.cardinal (Word_index.select_prefix wi "Ref" whole));
        Alcotest.(check int) "whole text does not start with Xy" 0
          (Region_set.cardinal (Word_index.select_prefix wi "Xy" whole)));
  ]

(* ------------------------------------------------------------------ *)
(* Instance & store                                                    *)

let instance_tests =
  [
    Alcotest.test_case "universe unions all names" `Quick (fun () ->
        let text = Text.of_string "abcdef" in
        let inst =
          Instance.create text
            [
              ("A", Region_set.of_pairs [ (0, 6) ]);
              ("B", Region_set.of_pairs [ (1, 3); (4, 5) ]);
            ]
        in
        Alcotest.(check int) "universe" 3
          (Region_set.cardinal (Instance.universe inst));
        Alcotest.(check int) "total" 3 (Instance.total_regions inst));
    Alcotest.test_case "restrict drops names" `Quick (fun () ->
        let text = Text.of_string "abcdef" in
        let inst =
          Instance.create text
            [
              ("A", Region_set.of_pairs [ (0, 6) ]);
              ("B", Region_set.of_pairs [ (1, 3) ]);
            ]
        in
        let p = Instance.restrict inst [ "A" ] in
        Alcotest.(check (list string)) "names" [ "A" ] (Instance.names p);
        Alcotest.(check bool) "B gone" false (Instance.mem p "B"));
    Alcotest.test_case "duplicate names rejected" `Quick (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Instance.create: duplicate region name A")
          (fun () ->
            ignore
              (Instance.create (Text.of_string "x")
                 [ ("A", Region_set.empty); ("A", Region_set.empty) ])));
    Alcotest.test_case "satisfies_rig accepts consistent instance" `Quick
      (fun () ->
        let text = Text.of_string "0123456789" in
        let inst =
          Instance.create text
            [
              ("A", Region_set.of_pairs [ (0, 10) ]);
              ("B", Region_set.of_pairs [ (2, 5) ]);
            ]
        in
        Alcotest.(check bool)
          "ok" true
          (Support.Rig_check.satisfies_rig inst ~edges:[ ("A", "B") ] = None);
        Alcotest.(check bool)
          "violated without edge" true
          (Support.Rig_check.satisfies_rig inst ~edges:[] <> None));
    Alcotest.test_case "index store rejects foreign files" `Quick (fun () ->
        let path = Filename.temp_file "oqf_test" ".idx" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc "definitely not an index file";
            close_out oc;
            match Index_store.load ~path with
            | exception Failure msg ->
                Alcotest.(check bool) "mentions magic" true
                  (String.length msg > 0)
            | _ -> Alcotest.fail "should refuse"));
    Alcotest.test_case "text loads from disk" `Quick (fun () ->
        let path = Filename.temp_file "oqf_test" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc "hello disk";
            close_out oc;
            let t = Text.of_file path in
            Alcotest.(check int) "length" 10 (Text.length t);
            Alcotest.(check string) "contents" "hello disk"
              (Text.sub t ~pos:0 ~len:10)));
    Alcotest.test_case "index store round-trip" `Quick (fun () ->
        let text = Text.of_string "hello world of regions" in
        let inst =
          Instance.create text
            [
              ("W", Region_set.of_pairs [ (0, 5); (6, 11) ]);
              ("ALL", Region_set.of_pairs [ (0, 22) ]);
            ]
        in
        let path = Filename.temp_file "oqf_test" ".idx" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Index_store.save ~path inst;
            let inst' = Index_store.load ~path in
            Alcotest.(check (list string))
              "names" (Instance.names inst) (Instance.names inst');
            Alcotest.(check bool)
              "regions equal" true
              (Region_set.equal (Instance.find inst "W") (Instance.find inst' "W"));
            Alcotest.(check int)
              "same text" (Text.length text)
              (Text.length (Instance.text inst'))));
  ]

(* ------------------------------------------------------------------ *)
(* Format-3 decoder: total over any body                               *)

let header = "OQF-INDEX-" ^ string_of_int Index_store.format_version ^ "\n"

(* A body under a valid header and a matching checksum, so it reaches
   the decoder. *)
let with_body path body =
  let oc = open_out_bin path in
  output_string oc (header ^ Digest.string body ^ body);
  close_out oc

let body_of_file path =
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let skip = String.length header + 16 in
  String.sub raw skip (String.length raw - skip)

let strictly_increasing set =
  Stdx.Sorted_array.is_sorted ~cmp:Region.compare (Region_set.to_array set)

(* [Ok] must hold the Region_set invariants, each region inside the
   text, and the universe equal to the union of the names' sets; any
   error must be typed.  An exception escapes and fails the test. *)
let check_load ~what path =
  match Index_store.load_result ~path with
  | Error (Index_store.Corrupt _ | Index_store.Not_an_index_file _) -> `Error
  | Error (Index_store.Version_mismatch _ as e) ->
      Alcotest.failf "%s: %s" what (Index_store.error_message e)
  | Ok inst ->
      let len = Text.length (Instance.text inst) in
      let sets = List.map (Instance.find inst) (Instance.names inst) in
      let inside set =
        Region_set.fold (fun ok (r : Region.t) -> ok && r.stop <= len) true set
      in
      if
        not
          (List.for_all strictly_increasing sets
          && List.for_all inside sets
          && strictly_increasing (Instance.universe inst)
          && Region_set.equal (Instance.universe inst) (Region_set.merge sets))
      then Alcotest.failf "%s: decoded instance breaks an invariant" what;
      `Ok

let store_sample () =
  let text = Text.of_string "alpha beta gamma delta epsilon" in
  Instance.create text
    [
      ("All", Region_set.of_pairs [ (0, 30) ]);
      ("Word", Region_set.of_pairs [ (0, 5); (6, 10); (11, 16); (17, 22); (23, 30) ]);
      ("Pair", Region_set.of_pairs [ (0, 10); (11, 22); (23, 30) ]);
      ("Empty", Region_set.empty);
      ("Tail", Region_set.of_pairs [ (23, 30); (30, 30) ]);
    ]

let with_temp f =
  let path = Filename.temp_file "oqf_decode" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let varint n =
  let b = Buffer.create 4 in
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n;
  Buffer.contents b

(* A body over [text] and [names] holding [records] (delta start,
   length, tag), with each name's region count and the node count
   derived from the records as the encoder would write them; [counts]
   and [nodes] override them. *)
let table_body ?counts ?nodes text names records =
  let k = List.length names in
  let derived = Array.make k 0 and opened = ref 0 in
  let start = ref 0 and stop = ref (-1) in
  List.iter
    (fun (d, l, t) ->
      if t < k then derived.(t) <- derived.(t) + 1;
      let s = !start + d in
      if not (d = 0 && s + l = !stop) then incr opened;
      start := s;
      stop := s + l)
    records;
  let counts = Option.value counts ~default:(Array.to_list derived) in
  let nodes = Option.value nodes ~default:!opened in
  varint (String.length text) ^ text ^ varint k
  ^ String.concat ""
      (List.map2
         (fun n c -> varint (String.length n) ^ n ^ varint c)
         names counts)
  ^ varint nodes
  ^ String.concat ""
      (List.map (fun (d, l, t) -> varint d ^ varint l ^ varint t) records)

(* A well-formed text and name list, then a node table of random
   varints — mostly small, so that some tables are valid — under
   counts that are usually right; one body in ten is raw noise. *)
let random_table_body seed =
  let prng = Stdx.Prng.create seed in
  let text = String.make (Stdx.Prng.int prng 40) 'x' in
  let k = Stdx.Prng.int prng 4 in
  let names = List.init k (Printf.sprintf "N%d") in
  let value () =
    match Stdx.Prng.int prng 20 with
    | 0 -> Stdx.Prng.int prng 1_000_000
    | 1 -> max_int
    | _ -> Stdx.Prng.int prng 12
  in
  let records =
    List.init (Stdx.Prng.int prng 6) (fun _ ->
        let delta = if Stdx.Prng.bool prng then 0 else value () in
        (delta, value (), Stdx.Prng.int prng (k + 1)))
  in
  let counts =
    if Stdx.Prng.int prng 10 = 0 then Some (List.init k (fun _ -> value ()))
    else None
  in
  let nodes = if Stdx.Prng.int prng 10 = 0 then Some (value ()) else None in
  if Stdx.Prng.int prng 10 = 0 then
    String.init (Stdx.Prng.int prng 64) (fun _ -> Char.chr (Stdx.Prng.int prng 256))
  else table_body ?counts ?nodes text names records

let decoder_tests =
  [
    Alcotest.test_case "round-trip keeps names, sets, universe and forest"
      `Quick (fun () ->
        with_temp (fun path ->
            let inst = store_sample () in
            Index_store.save ~path inst;
            let back = Index_store.load ~path in
            Alcotest.(check (list string))
              "names" (Instance.names inst) (Instance.names back);
            List.iter
              (fun n ->
                Alcotest.(check bool)
                  n true
                  (Region_set.equal (Instance.find inst n) (Instance.find back n)))
              (Instance.names inst);
            Alcotest.(check bool)
              "universe" true
              (Region_set.equal (Instance.universe inst) (Instance.universe back));
            Alcotest.(check (array int))
              "parents"
              (Region_set.parents (Instance.forest inst))
              (Region_set.parents (Instance.forest back))));
    Alcotest.test_case "a crossing node table is corrupt, not an exception"
      `Quick (fun () ->
        (* A [0,5) and A [3,9) cross, and B [3,4) lies inside both: well
           ordered records under a valid checksum, but no forest *)
        with_temp (fun path ->
            with_body path
              (table_body "abcdefghij" [ "A"; "B" ]
                 [ (0, 5, 0); (3, 6, 0); (0, 1, 1) ]);
            match Index_store.load_result ~path with
            | Error (Index_store.Corrupt { reason = "regions not nested"; _ }) -> ()
            | Error e -> Alcotest.fail (Index_store.error_message e)
            | Ok _ -> Alcotest.fail "a crossing universe must not load"));
    Alcotest.test_case "out-of-order and duplicate records are corrupt"
      `Quick (fun () ->
        let body records = table_body "abcdef" [ "A"; "B" ] records in
        with_temp (fun path ->
            with_body path (body [ (2, 2, 0); (0, 2, 1); (1, 3, 0) ]);
            Alcotest.(check bool) "well formed" true
              (check_load ~what:"well formed" path = `Ok);
            List.iter
              (fun (what, records) ->
                with_body path (body records);
                match Index_store.load_result ~path with
                | Error
                    (Index_store.Corrupt { reason = "records out of order"; _ })
                  ->
                    ()
                | _ -> Alcotest.failf "%s: expected records out of order" what)
              [
                ("wider extent after narrower", [ (2, 2, 0); (0, 4, 0) ]);
                ("tag repeated in a node", [ (2, 2, 1); (0, 2, 1) ]);
                ("tags descending in a node", [ (2, 2, 1); (0, 2, 0) ]);
              ]));
    Alcotest.test_case "a file cut at every offset is a typed error" `Quick
      (fun () ->
        with_temp (fun path ->
            Index_store.save ~path (store_sample ());
            let ic = open_in_bin path in
            let raw = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let body = body_of_file path in
            for cut = 0 to String.length raw - 1 do
              let oc = open_out_bin path in
              output_string oc (String.sub raw 0 cut);
              close_out oc;
              if check_load ~what:(Printf.sprintf "file cut at %d" cut) path = `Ok
              then Alcotest.failf "file cut at %d loaded" cut
            done;
            (* the same cuts past the checksum reach the decoder *)
            for cut = 0 to String.length body - 1 do
              with_body path (String.sub body 0 cut);
              if check_load ~what:(Printf.sprintf "body cut at %d" cut) path = `Ok
              then Alcotest.failf "body cut at %d decoded" cut
            done));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"flipped body bytes (checksum recomputed): Ok or Corrupt"
         QCheck.(make Gen.(int_bound 1_000_000))
         (fun seed ->
           let prng = Stdx.Prng.create seed in
           with_temp (fun path ->
               Index_store.save ~path (store_sample ());
               let body = Bytes.of_string (body_of_file path) in
               for _ = 1 to Stdx.Prng.int_in prng 1 3 do
                 let i = Stdx.Prng.int prng (Bytes.length body) in
                 Bytes.set body i
                   (Char.chr
                      (Char.code (Bytes.get body i)
                      lxor Stdx.Prng.int_in prng 1 255))
               done;
               with_body path (Bytes.to_string body);
               ignore (check_load ~what:(Printf.sprintf "seed %d" seed) path);
               true)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000
         ~name:"random node tables: Ok with invariants or Corrupt"
         QCheck.(make Gen.(int_bound 1_000_000))
         (fun seed ->
           with_temp (fun path ->
               with_body path (random_table_body seed);
               ignore (check_load ~what:(Printf.sprintf "seed %d" seed) path));
           true));
    Alcotest.test_case "random node tables decode and fail both" `Quick
      (fun () ->
        with_temp (fun path ->
            let outcomes =
              List.init 400 (fun seed ->
                  with_body path (random_table_body seed);
                  check_load ~what:(Printf.sprintf "seed %d" seed) path)
            in
            let oks = List.length (List.filter (( = ) `Ok) outcomes) in
            if oks < 20 || oks > 380 then
              Alcotest.failf "%d/400 random tables decoded" oks));
  ]

let suites =
  [
    ("pat.region", region_tests);
    ( "pat.region_set",
      region_set_units @ List.map QCheck_alcotest.to_alcotest region_set_props );
    ( "pat.suffix_array",
      List.map QCheck_alcotest.to_alcotest
        (suffix_array_props @ adversarial_props @ lazy_props @ collect_props)
      @ [
          Alcotest.test_case "lazy buckets are domain-safe" `Quick
            domain_safety_test;
          Alcotest.test_case "collection passes are counted" `Quick
            passes_test;
        ] );
    ( "pat.word_selections",
      List.map QCheck_alcotest.to_alcotest
        (word_selection_props @ region_side_sigma_props) );
    ("pat.word_index", word_index_tests);
    ("pat.instance", instance_tests);
    ("pat.index_decoder", decoder_tests);
  ]
