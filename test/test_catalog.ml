(* Tests for the catalog subsystem: the hardened index store, the
   incremental (append-only) maintenance path — checked for equivalence
   with a from-scratch rebuild on random appended tails — the bounded
   LRU instance cache, and catalog staleness/refresh end to end. *)

let temp_dir () =
  let path = Filename.temp_file "oqf_catalog_test" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let or_fail = function Ok x -> x | Error e -> Alcotest.fail e

let log_text n = Workload.Log_gen.generate (Workload.Log_gen.with_size n)

let log_keep = Fschema.Grammar.indexable Fschema.Log_schema.grammar

let full_instance view keep text =
  or_fail (Fschema.View.index_file view text ~keep)

(* ------------------------------------------------------------------ *)
(* Incremental maintenance == full rebuild                             *)

let check_equal_instances ~msg incremental full =
  Alcotest.(check (list string))
    (msg ^ ": same names")
    (Pat.Instance.names full)
    (Pat.Instance.names incremental);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: region set %s equal" msg name)
        true
        (Pat.Region_set.equal
           (Pat.Instance.find incremental name)
           (Pat.Instance.find full name)))
    (Pat.Instance.names full);
  let fi = Pat.Instance.forest incremental and ff = Pat.Instance.forest full in
  Alcotest.(check bool)
    (msg ^ ": forest nodes equal")
    true
    (Pat.Region_set.equal (Pat.Region_set.nodes fi) (Pat.Region_set.nodes ff));
  Alcotest.(check (array int))
    (msg ^ ": forest parents equal")
    (Pat.Region_set.parents ff) (Pat.Region_set.parents fi)

let figures ?(from = 0) ?(stats = []) ?(depths = []) instance =
  Oqf_catalog.Catalog.instance_figures ~from ~stats ~depths instance

let check_equal_figures ~msg (stats, depths) (stats', depths') =
  Alcotest.(check (list (triple string int int)))
    (msg ^ ": region and match-point counts equal")
    stats stats';
  Alcotest.(check (list (pair string (array int))))
    (msg ^ ": depth histograms equal")
    depths depths'

let check_equal_word_index ~msg incremental full words =
  List.iter
    (fun w ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s: match points of %S equal" msg w)
        (Array.to_list (Pat.Word_index.match_points (Pat.Instance.word_index full) w))
        (Array.to_list
           (Pat.Word_index.match_points (Pat.Instance.word_index incremental) w)))
    words

(* Log_gen draws its randomness per entry in sequence, so the n-entry
   corpus is a byte prefix of the (n + k)-entry one: growing n to n + k
   is exactly an append of whole entries. *)
let incremental_equals_full =
  QCheck.Test.make ~count:30 ~name:"incremental refresh == full rebuild (log)"
    QCheck.(pair (int_range 1 60) (int_range 1 40))
    (fun (n, k) ->
      let view = Fschema.Log_schema.view in
      let base = log_text n in
      let grown = log_text (n + k) in
      assert (String.sub grown 0 (String.length base) = base);
      let old_instance =
        full_instance view log_keep (Pat.Text.of_string base)
      in
      let new_text = Pat.Text.of_string grown in
      let incremental =
        match
          Oqf_catalog.Incremental.extend_instance view ~old_instance
            ~old_len:(String.length base) new_text
        with
        | Ok i -> i
        | Error e -> QCheck.Test.fail_reportf "extend failed: %s" e
      in
      let full = full_instance view log_keep new_text in
      List.iter
        (fun name ->
          if
            not
              (Pat.Region_set.equal
                 (Pat.Instance.find incremental name)
                 (Pat.Instance.find full name))
          then
            QCheck.Test.fail_reportf "region set %s differs (n=%d k=%d)" name n
              k)
        (Pat.Instance.names full);
      (* the extended word index answers like a from-scratch one *)
      List.iter
        (fun w ->
          if
            Pat.Word_index.match_points (Pat.Instance.word_index incremental) w
            <> Pat.Word_index.match_points (Pat.Instance.word_index full) w
          then QCheck.Test.fail_reportf "match points of %S differ" w)
        [ "ERROR"; "INFO"; "auth"; "web"; "level"; "msg" ];
      (* and the result still satisfies the RIG of its indexed names *)
      (match Support.Rig_check.verify_against_rig view incremental with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "%s" e);
      true)

let refresh_kind = function
  | Oqf_catalog.Catalog.Unchanged -> "unchanged"
  | Oqf_catalog.Catalog.Extended _ -> "extended"
  | Oqf_catalog.Catalog.Rebuilt _ -> "rebuilt"

(* The append-shaped shipped schemas, each with a generator of whole
   files of [n] elements. *)
let appendable =
  [
    ( "log",
      Fschema.Log_schema.grammar,
      fun ~seed n ->
        Workload.Log_gen.generate { (Workload.Log_gen.with_size n) with seed } );
    ( "mbox",
      Fschema.Mbox_schema.grammar,
      fun ~seed n ->
        Workload.Mbox_gen.generate { (Workload.Mbox_gen.with_size n) with seed }
    );
    ( "bibtex",
      Fschema.Bibtex_schema.grammar,
      fun ~seed n ->
        Workload.Bibtex_gen.generate
          { (Workload.Bibtex_gen.with_size n) with seed } );
  ]

let is_space c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

let trim_left s =
  let i = ref 0 in
  while !i < String.length s && is_space s.[!i] do
    incr i
  done;
  String.sub s !i (String.length s - !i)

let trim_right s =
  let n = ref (String.length s) in
  while !n > 0 && is_space s.[!n - 1] do
    decr n
  done;
  String.sub s 0 !n

(* What an entry records of its figures in the manifest. *)
let manifest_figure_lines cat =
  read_file (Filename.concat (Oqf_catalog.Catalog.dir cat) "CATALOG")
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         String.starts_with ~prefix:"rstat " l
         || String.starts_with ~prefix:"rdepth " l)

(* Appending whole elements and refreshing after each append leaves
   the entry as adding the final file to a fresh catalog would: the
   same fingerprint, the same figures in the entry and in the manifest,
   and the same index file bytes.  A tail starts right after the last
   element, after a blank, or after the whitespace the generator
   writes, and the file may end without a newline; no element of these
   schemas begins or ends with a word byte, so a tail's first byte
   never continues a word here (the boundary-word case above has a
   grammar of its own). *)
let catalog_append_equals_add =
  QCheck.Test.make ~count:25 ~name:"catalog append == catalog add (log, mbox, bibtex)"
    QCheck.(
      triple (int_range 0 2) (int_range 0 6)
        (list_of_size Gen.(1 -- 5)
           (triple (int_range 1 4) (int_range 0 10_000) (int_range 0 3))))
    (fun (which, n, appends) ->
      let schema, grammar, gen = List.nth appendable which in
      let header, _ = Option.get (Oqf_catalog.Incremental.append_shape grammar) in
      let body ~seed k =
        let text = gen ~seed k in
        String.sub text (String.length header)
          (String.length text - String.length header)
      in
      let dir = temp_dir () in
      let path = Filename.concat dir ("src." ^ schema) in
      write_file path (gen ~seed:7 n);
      let cat = or_fail (Oqf_catalog.Catalog.init (Filename.concat dir "cat")) in
      let (_ : Oqf_catalog.Catalog.entry) =
        or_fail (Oqf_catalog.Catalog.add cat ~schema path)
      in
      List.iter
        (fun (k, seed, shape) ->
          let b = body ~seed k in
          let tail =
            match shape with
            | 0 -> b
            | 1 -> trim_left b
            | 2 -> " " ^ trim_left b
            | _ -> trim_right (trim_left b)
          in
          write_file path (read_file path ^ tail);
          match Oqf_catalog.Catalog.refresh cat path with
          | Ok (Oqf_catalog.Catalog.Extended _) -> ()
          | Ok r -> QCheck.Test.fail_reportf "refresh %s, not extended" (refresh_kind r)
          | Error e -> QCheck.Test.fail_reportf "refresh failed: %s" e)
        appends;
      let fresh =
        or_fail (Oqf_catalog.Catalog.init (Filename.concat dir "fresh"))
      in
      let added = or_fail (Oqf_catalog.Catalog.add fresh ~schema path) in
      let grown = Option.get (Oqf_catalog.Catalog.find cat path) in
      let same what a b =
        if a <> b then QCheck.Test.fail_reportf "%s %s differs" schema what
      in
      let open Oqf_catalog.Catalog in
      same "length" grown.length added.length;
      same "digest" grown.digest added.digest;
      same "stats" grown.stats added.stats;
      same "depths" grown.depths added.depths;
      same "manifest figures" (manifest_figure_lines cat)
        (manifest_figure_lines fresh);
      same "index file"
        (read_file (Filename.concat (Oqf_catalog.Catalog.dir cat) grown.index_file))
        (read_file (Filename.concat (Oqf_catalog.Catalog.dir fresh) added.index_file));
      true)

(* The laminarity premise: every universe the shipped grammars build
   nests, so lib's forest builders never refuse one.  Files of the four
   workload generators, over seeds and sizes, are parsed; every
   parse-tree node must be non-empty, and the full index set must build
   through [Builder.instance_of_tree].  The append-shaped kinds then
   grow by a tail of whole elements through [Incremental.extend_instance]
   ([Instance.append]), which must not be refused either. *)
let grammar_universes_nest =
  let kinds =
    [|
      ( "log",
        Fschema.Log_schema.view,
        Some (fun ~seed n ->
          Workload.Log_gen.generate { (Workload.Log_gen.with_size n) with seed })
      );
      ( "bibtex",
        Fschema.Bibtex_schema.view,
        Some (fun ~seed n ->
          Workload.Bibtex_gen.generate
            { (Workload.Bibtex_gen.with_size n) with seed }) );
      ( "mbox",
        Fschema.Mbox_schema.view,
        Some (fun ~seed n ->
          Workload.Mbox_gen.generate { (Workload.Mbox_gen.with_size n) with seed })
      );
      ("sgml", Fschema.Sgml_schema.view, None);
    |]
  in
  QCheck.Test.make ~count:80
    ~name:"grammar-built universes nest (log, BibTeX, mbox, SGML)"
    QCheck.(quad (int_bound 3) (int_bound 10_000) (int_range 1 25) (int_range 1 8))
    (fun (which, seed, n, k) ->
      let kind, view, appendable = kinds.(which) in
      let grammar = view.Fschema.View.grammar in
      let keep = Fschema.Grammar.indexable grammar in
      let fail fmt =
        QCheck.Test.fail_reportf ("%s seed %d n %d: " ^^ fmt) kind seed n
      in
      let build source =
        let text = Pat.Text.of_string source in
        match Fschema.Parser_engine.parse grammar text with
        | Error e -> fail "no parse: %s" (Fschema.Parser_engine.describe_error text e)
        | Ok tree ->
            List.iter
              (fun (symbol, (r : Pat.Region.t)) ->
                if r.start >= r.stop then fail "empty %s node at %d" symbol r.start)
              (Fschema.Parse_tree.all_regions tree);
            (match Fschema.Builder.instance_of_tree text tree ~keep with
            | inst -> inst
            | exception Invalid_argument msg -> fail "build refused: %s" msg)
      in
      (match appendable with
      | None ->
          ignore
            (build
               (Workload.Sgml_gen.generate
                  {
                    Workload.Sgml_gen.default with
                    seed;
                    top_sections = 1 + (n mod 4);
                    depth = 1 + (k mod 5);
                  }))
      | Some gen ->
          let base = gen ~seed n and grown = gen ~seed (n + k) in
          let old_instance = build base in
          ignore (build grown);
          (match
             Oqf_catalog.Incremental.extend_instance view ~old_instance
               ~old_len:(String.length base) (Pat.Text.of_string grown)
           with
          | Ok _ -> ()
          | Error e -> fail "append by %d failed: %s" k e
          | exception Invalid_argument msg -> fail "append by %d refused: %s" k msg));
      true)

let incremental_tests =
  [
    QCheck_alcotest.to_alcotest grammar_universes_nest;
    QCheck_alcotest.to_alcotest incremental_equals_full;
    QCheck_alcotest.to_alcotest catalog_append_equals_add;
    Alcotest.test_case "append shapes of the built-in schemas" `Quick (fun () ->
        let shape g = Oqf_catalog.Incremental.append_shape g in
        Alcotest.(check bool)
          "log is append-only" true
          (shape Fschema.Log_schema.grammar <> None);
        Alcotest.(check bool)
          "mbox is append-only" true
          (shape Fschema.Mbox_schema.grammar <> None);
        Alcotest.(check bool)
          "bibtex is append-only" true
          (shape Fschema.Bibtex_schema.grammar <> None);
        Alcotest.(check bool)
          "sgml (closing tag) is not" true
          (shape Fschema.Sgml_schema.grammar = None));
    Alcotest.test_case "mbox append extends incrementally" `Quick (fun () ->
        let view = Fschema.Mbox_schema.view in
        let keep = Fschema.Grammar.indexable Fschema.Mbox_schema.grammar in
        let base = Workload.Mbox_gen.generate (Workload.Mbox_gen.with_size 6) in
        let grown = Workload.Mbox_gen.generate (Workload.Mbox_gen.with_size 9) in
        Alcotest.(check string)
          "mbox generator grows by appending" base
          (String.sub grown 0 (String.length base));
        let old_instance = full_instance view keep (Pat.Text.of_string base) in
        let new_text = Pat.Text.of_string grown in
        let incremental =
          or_fail
            (Oqf_catalog.Incremental.extend_instance view ~old_instance
               ~old_len:(String.length base) new_text)
        in
        check_equal_instances ~msg:"mbox" incremental
          (full_instance view keep new_text);
        check_equal_word_index ~msg:"mbox" incremental
          (full_instance view keep new_text)
          [ "FROM"; "SUBJECT"; "edu" ]);
    Alcotest.test_case "a word running across the append boundary" `Quick
      (fun () ->
        (* No shipped schema has an element that begins and ends with a
           word byte, so only a grammar of its own puts a word across
           the boundary: "…endbegin(c)end" is one word in the file,
           while the tail parsed behind the header alone ("==begin…")
           would start one at the boundary. *)
        let grammar =
          Fschema.Grammar.create_exn ~root:"Items"
            Fschema.Grammar.
              [
                {
                  lhs = "Items";
                  rhs =
                    Seq [ Lit "=="; Star { nonterm = "Item"; separator = None } ];
                };
                {
                  lhs = "Item";
                  rhs = Seq [ Lit "begin"; Nonterm "Body"; Lit "end" ];
                };
                { lhs = "Body"; rhs = Seq [ Lit "("; Tok (Until [ ')' ]); Lit ")" ] };
              ]
        in
        let view = Fschema.View.make ~grammar ~classes:[ ("Items", "Item") ] in
        let keep = Fschema.Grammar.indexable grammar in
        let base = "== begin(a b)end" and tail = "begin(c d)endbegin(e)end" in
        let old_instance = full_instance view keep (Pat.Text.of_string base) in
        let new_text = Pat.Text.of_string (base ^ tail) in
        let incremental =
          or_fail
            (Oqf_catalog.Incremental.extend_instance view ~old_instance
               ~old_len:(String.length base) new_text)
        in
        let full = full_instance view keep new_text in
        check_equal_instances ~msg:"boundary word" incremental full;
        check_equal_word_index ~msg:"boundary word" incremental full
          [ "endbegin"; "begin"; "c"; "e" ];
        let stats, depths = figures old_instance in
        let appended =
          figures ~from:(String.length base) ~stats ~depths incremental
        in
        check_equal_figures ~msg:"boundary word" (figures full) appended;
        Alcotest.(check (list (triple string int int)))
          "the boundary starts no word"
          [ ("Body", 3, 5); ("Item", 3, 9) ]
          (fst appended));
    Alcotest.test_case "garbage tail is rejected" `Quick (fun () ->
        let view = Fschema.Log_schema.view in
        let base = log_text 3 in
        let grown = base ^ "not a log entry at all\n" in
        let old_instance =
          full_instance view log_keep (Pat.Text.of_string base)
        in
        match
          Oqf_catalog.Incremental.extend_instance view ~old_instance
            ~old_len:(String.length base)
            (Pat.Text.of_string grown)
        with
        | Ok _ -> Alcotest.fail "garbage tail must not extend"
        | Error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Index store hardening                                               *)

let store_instance () =
  let text = Pat.Text.of_string (Fschema.Log_schema.sample) in
  full_instance Fschema.Log_schema.view log_keep text

let expect_error ~msg path classify =
  match Pat.Index_store.load_result ~path with
  | Ok _ -> Alcotest.fail (msg ^ ": load unexpectedly succeeded")
  | Error e ->
      Alcotest.(check bool)
        (msg ^ ": classified (" ^ Pat.Index_store.error_message e ^ ")")
        true (classify e)

let index_store_tests =
  [
    Alcotest.test_case "save/load round-trips" `Quick (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "a.idx" in
        let instance = store_instance () in
        Pat.Index_store.save ~path instance;
        Alcotest.(check unit)
          "verify passes" ()
          (or_fail
             (Result.map_error Pat.Index_store.error_message
                (Pat.Index_store.verify ~path)));
        let loaded = Pat.Index_store.load ~path in
        check_equal_instances ~msg:"round-trip" loaded instance);
    Alcotest.test_case "foreign file is not an index" `Quick (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "foreign" in
        write_file path "just some text, definitely no index";
        expect_error ~msg:"foreign" path (function
          | Pat.Index_store.Not_an_index_file _ -> true
          | _ -> false));
    Alcotest.test_case "version-1 file reports a version mismatch" `Quick
      (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "v1.idx" in
        (* the seed format: bare magic, then the marshalled payload *)
        write_file path ("OQF-INDEX-1" ^ Marshal.to_string ("old", []) []);
        expect_error ~msg:"v1" path (function
          | Pat.Index_store.Version_mismatch { found = 1; _ } -> true
          | _ -> false));
    Alcotest.test_case "flipped payload byte fails the checksum" `Quick
      (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "corrupt.idx" in
        Pat.Index_store.save ~path (store_instance ());
        let raw = Bytes.of_string (read_file path) in
        let pos = Bytes.length raw - 5 in
        Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 0xff));
        write_file path (Bytes.to_string raw);
        expect_error ~msg:"corrupt" path (function
          | Pat.Index_store.Corrupt { reason = "checksum mismatch"; _ } -> true
          | _ -> false));
    Alcotest.test_case "truncated file is corrupt" `Quick (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "trunc.idx" in
        Pat.Index_store.save ~path (store_instance ());
        let raw = read_file path in
        write_file path (String.sub raw 0 (String.length raw / 2));
        expect_error ~msg:"truncated" path (function
          | Pat.Index_store.Corrupt _ -> true
          | _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Instance cache                                                      *)

let small_instance label =
  (* distinct texts so instances differ and have known costs *)
  let text = Pat.Text.of_string ("== log ==\n[t] level=INFO service=" ^ label ^ " msg=\"x\"\n") in
  full_instance Fschema.Log_schema.view log_keep text

let cache_tests =
  [
    Alcotest.test_case "hits and misses are counted" `Quick (fun () ->
        let cache = Oqf_catalog.Instance_cache.create ~budget_bytes:(1 lsl 20) in
        let i = small_instance "auth" in
        Alcotest.(check bool)
          "miss first" true
          (Oqf_catalog.Instance_cache.find cache "a" = None);
        Oqf_catalog.Instance_cache.add cache "a" i;
        Alcotest.(check bool)
          "hit second" true
          (Oqf_catalog.Instance_cache.find cache "a" <> None);
        let s = Oqf_catalog.Instance_cache.stats cache in
        Alcotest.(check int) "one hit" 1 s.Oqf_catalog.Instance_cache.hits;
        Alcotest.(check int) "one miss" 1 s.Oqf_catalog.Instance_cache.misses);
    Alcotest.test_case "budget evicts the least recently used" `Quick
      (fun () ->
        let one = small_instance "auth" in
        let cost = Oqf_catalog.Instance_cache.cost_of_instance one in
        (* room for two instances of this size, not three *)
        let cache =
          Oqf_catalog.Instance_cache.create ~budget_bytes:((2 * cost) + (cost / 2))
        in
        Oqf_catalog.Instance_cache.add cache "a" one;
        Oqf_catalog.Instance_cache.add cache "b" (small_instance "mail");
        ignore (Oqf_catalog.Instance_cache.find cache "a");
        (* "b" is now least recently used; inserting "c" must evict it *)
        Oqf_catalog.Instance_cache.add cache "c" (small_instance "web9");
        Alcotest.(check bool)
          "a survives" true
          (Oqf_catalog.Instance_cache.find cache "a" <> None);
        Alcotest.(check bool)
          "b evicted" true
          (Oqf_catalog.Instance_cache.find cache "b" = None);
        let s = Oqf_catalog.Instance_cache.stats cache in
        Alcotest.(check int)
          "one eviction" 1 s.Oqf_catalog.Instance_cache.evictions);
    Alcotest.test_case "an instance is charged for the slots it collected"
      `Quick (fun () ->
        let module C = Oqf_catalog.Instance_cache in
        let log () =
          full_instance Fschema.Log_schema.view log_keep
            (Pat.Text.of_string (log_text 2500))
        in
        let a = log () and b = log () and c = log () in
        let sa = Pat.Word_index.suffix_array (Pat.Instance.word_index a) in
        (* the text and three words per region: no slot collected yet *)
        let uncollected =
          Pat.Text.length (Pat.Instance.text a)
          + (3 * 8 * Pat.Instance.total_regions a)
        in
        let starts = Pat.Suffix_array.count sa "" in
        (* three uncollected instances, and half of one's word-start
           slots to spare *)
        let cache =
          C.create ~budget_bytes:((3 * uncollected) + (4 * starts))
        in
        List.iter2 (C.add cache) [ "a"; "b"; "c" ] [ a; b; c ];
        Alcotest.(check int) "all three resident" 3 (C.count cache);
        Alcotest.(check int) "no eviction" 0 (C.stats cache).C.evictions;
        ignore (Pat.Suffix_array.order sa);
        Alcotest.(check int)
          "one word per collected slot" (uncollected + (8 * starts))
          (C.cost_of_instance a);
        (* a tiny newcomer fits under the admission-time costs; re-costed,
           "a" no longer does, and it is the least recently used *)
        C.add cache "d" (small_instance "auth");
        Alcotest.(check int) "one eviction" 1 (C.stats cache).C.evictions;
        Alcotest.(check bool) "a evicted" true (C.find cache "a" = None);
        Alcotest.(check int)
          "used is the residents' cost"
          ((2 * uncollected) + C.cost_of_instance (small_instance "auth"))
          (C.used_bytes cache));
    Alcotest.test_case "oversized instances are not cached" `Quick (fun () ->
        let cache = Oqf_catalog.Instance_cache.create ~budget_bytes:16 in
        Oqf_catalog.Instance_cache.add cache "a" (small_instance "auth");
        Alcotest.(check int) "empty" 0 (Oqf_catalog.Instance_cache.count cache));
  ]

(* ------------------------------------------------------------------ *)
(* Catalog end to end                                                  *)

let setup_catalog n =
  let dir = temp_dir () in
  let log_path = Filename.concat dir "app.log" in
  write_file log_path (log_text n);
  let cat = or_fail (Oqf_catalog.Catalog.init (Filename.concat dir "cat")) in
  let (_ : Oqf_catalog.Catalog.entry) =
    or_fail (Oqf_catalog.Catalog.add cat ~schema:"log" log_path)
  in
  (dir, log_path, cat)

(* An extended instance must still satisfy the RIG of its indexed
   names. *)
let check_refresh msg expected cat path =
  let r = or_fail (Oqf_catalog.Catalog.refresh cat path) in
  Alcotest.(check string) msg expected (refresh_kind r);
  match r with
  | Oqf_catalog.Catalog.Extended _ ->
      or_fail
        (Support.Rig_check.verify_against_rig Fschema.Log_schema.view
           (or_fail (Oqf_catalog.Catalog.load cat path)))
  | Oqf_catalog.Catalog.Unchanged | Oqf_catalog.Catalog.Rebuilt _ -> ()

let check_matches_rebuild msg cat log_path =
  let loaded = or_fail (Oqf_catalog.Catalog.load cat log_path) in
  let full =
    full_instance Fschema.Log_schema.view log_keep (Pat.Text.of_file log_path)
  in
  check_equal_instances ~msg loaded full

let catalog_tests =
  [
    Alcotest.test_case "fresh entry refreshes to Unchanged" `Quick (fun () ->
        let _, log_path, cat = setup_catalog 10 in
        check_refresh "no change" "unchanged" cat log_path);
    Alcotest.test_case "appended source extends incrementally" `Quick
      (fun () ->
        let _, log_path, cat = setup_catalog 10 in
        write_file log_path (log_text 16);
        (match Oqf_catalog.Catalog.status cat with
        | [ (_, Oqf_catalog.Catalog.Appended _) ] -> ()
        | _ -> Alcotest.fail "status must report the append");
        check_refresh "append" "extended" cat log_path;
        check_matches_rebuild "after append" cat log_path;
        check_refresh "now fresh" "unchanged" cat log_path);
    Alcotest.test_case "appended source over a corrupt index rebuilds once"
      `Quick (fun () ->
        let _, log_path, cat = setup_catalog 10 in
        let e = Option.get (Oqf_catalog.Catalog.find cat log_path) in
        let idx =
          Filename.concat (Oqf_catalog.Catalog.dir cat)
            e.Oqf_catalog.Catalog.index_file
        in
        let bytes = read_file idx in
        write_file idx (String.sub bytes 0 (String.length bytes / 2));
        write_file log_path (log_text 16);
        (* a fresh handle: no instance cached from the add *)
        let cat = or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat)) in
        let g0 = Oqf_catalog.Catalog.generation cat in
        check_refresh "append over a corrupt index" "rebuilt" cat log_path;
        Alcotest.(check int) "one commit" (g0 + 1)
          (Oqf_catalog.Catalog.generation cat);
        check_matches_rebuild "after the rebuild" cat log_path);
    Alcotest.test_case "truncated source falls back to full rebuild" `Quick
      (fun () ->
        let _, log_path, cat = setup_catalog 10 in
        write_file log_path (log_text 6);
        check_refresh "truncation" "rebuilt" cat log_path;
        check_matches_rebuild "after truncation" cat log_path);
    Alcotest.test_case "edited source falls back to full rebuild" `Quick
      (fun () ->
        let _, log_path, cat = setup_catalog 10 in
        let contents = read_file log_path in
        let edited =
          (* change one digit mid-file: same length, different bytes *)
          String.mapi
            (fun i c -> if i = String.length contents / 2 && c <> '\n' then 'Z' else c)
            contents
        in
        let edited =
          if edited = contents then contents ^ "extra garbage" else edited
        in
        write_file log_path edited;
        match Oqf_catalog.Catalog.refresh cat log_path with
        | Ok (Oqf_catalog.Catalog.Rebuilt _) | Error _ ->
            (* an edit that still parses rebuilds; an edit that breaks
               the grammar surfaces as an error — never Extended *)
            ()
        | Ok r ->
            Alcotest.failf "edit must not extend (got %s)" (refresh_kind r));
    Alcotest.test_case "grown-but-edited prefix rebuilds, not extends" `Quick
      (fun () ->
        let _, log_path, cat = setup_catalog 10 in
        let grown = log_text 16 in
        let tampered =
          String.mapi (fun i c -> if i = 40 then (if c = '0' then '1' else '0') else c) grown
        in
        write_file log_path tampered;
        match or_fail (Oqf_catalog.Catalog.refresh cat log_path) with
        | Oqf_catalog.Catalog.Rebuilt _ -> ()
        | r -> Alcotest.failf "tampered prefix must rebuild (got %s)" (refresh_kind r));
    Alcotest.test_case "missing index file rebuilds" `Quick (fun () ->
        let _, log_path, cat = setup_catalog 8 in
        let e = Option.get (Oqf_catalog.Catalog.find cat log_path) in
        Sys.remove
          (Filename.concat (Oqf_catalog.Catalog.dir cat)
             e.Oqf_catalog.Catalog.index_file);
        check_refresh "missing index" "rebuilt" cat log_path);
    Alcotest.test_case "corrupt index file rebuilds" `Quick (fun () ->
        let _, log_path, cat = setup_catalog 8 in
        let cache = Oqf_catalog.Catalog.cache cat in
        (* truncate the entry's current index file; return its name *)
        let corrupt () =
          let e = Option.get (Oqf_catalog.Catalog.find cat log_path) in
          let idx =
            Filename.concat (Oqf_catalog.Catalog.dir cat)
              e.Oqf_catalog.Catalog.index_file
          in
          let raw = read_file idx in
          write_file idx (String.sub raw 0 (String.length raw - 7));
          e.Oqf_catalog.Catalog.index_file
        in
        let (_ : string) = corrupt () in
        (match Oqf_catalog.Catalog.status cat with
        | [ (_, Oqf_catalog.Catalog.Index_unreadable _) ] -> ()
        | _ -> Alcotest.fail "status must flag the corrupt index");
        (* the instance the add cached does not hide the damaged file *)
        Alcotest.(check int) "still cached" 1
          (Oqf_catalog.Instance_cache.count cache);
        check_refresh "corrupt index, instance cached" "rebuilt" cat log_path;
        (* the cache is keyed by index file *)
        Oqf_catalog.Instance_cache.remove cache (corrupt ());
        Alcotest.(check int) "uncached" 0
          (Oqf_catalog.Instance_cache.count cache);
        check_refresh "corrupt index, not cached" "rebuilt" cat log_path;
        check_matches_rebuild "healed" cat log_path);
    Alcotest.test_case "refresh_for_load leaves the checksum to the load"
      `Quick (fun () ->
        let _, log_path, cat = setup_catalog 8 in
        let reopened =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        let e = Option.get (Oqf_catalog.Catalog.find reopened log_path) in
        let idx =
          Filename.concat (Oqf_catalog.Catalog.dir reopened)
            e.Oqf_catalog.Catalog.index_file
        in
        let checked = Obs.Metrics.counter "pat.index_bytes_checked" in
        let before = Obs.Metrics.value checked in
        let r = or_fail (Oqf_catalog.Catalog.refresh_for_load reopened log_path) in
        Alcotest.(check string) "fresh" "unchanged" (refresh_kind r);
        let (_ : Pat.Instance.t) =
          or_fail (Oqf_catalog.Catalog.load reopened log_path)
        in
        (* the body (the file less its 12-byte header and 16-byte
           digest) is hashed once, by the load *)
        Alcotest.(check int) "body hashed once"
          (String.length (read_file idx) - 28)
          (Obs.Metrics.value checked - before);
        let s =
          Oqf_catalog.Instance_cache.stats (Oqf_catalog.Catalog.cache reopened)
        in
        Alcotest.(check int) "one miss" 1 s.Oqf_catalog.Instance_cache.misses;
        Alcotest.(check int) "no hit" 0 s.Oqf_catalog.Instance_cache.hits);
    Alcotest.test_case "refresh_for_load: a corrupt index heals on load"
      `Quick (fun () ->
        let _, log_path, cat = setup_catalog 8 in
        let e = Option.get (Oqf_catalog.Catalog.find cat log_path) in
        let idx =
          Filename.concat (Oqf_catalog.Catalog.dir cat)
            e.Oqf_catalog.Catalog.index_file
        in
        let raw = read_file idx in
        write_file idx (String.sub raw 0 (String.length raw - 7));
        Oqf_catalog.Instance_cache.remove (Oqf_catalog.Catalog.cache cat)
          e.Oqf_catalog.Catalog.index_file;
        let r = or_fail (Oqf_catalog.Catalog.refresh_for_load cat log_path) in
        Alcotest.(check string) "not read" "unchanged" (refresh_kind r);
        let healed = Obs.Metrics.counter "catalog.healed" in
        let healed_before = Obs.Metrics.value healed in
        check_matches_rebuild "healed" cat log_path;
        Alcotest.(check int) "healed on load" (healed_before + 1)
          (Obs.Metrics.value healed));
    Alcotest.test_case "reopened catalog serves persisted entries" `Quick
      (fun () ->
        let _, log_path, cat = setup_catalog 8 in
        let reopened =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        (match Oqf_catalog.Catalog.entries reopened with
        | [ e ] ->
            Alcotest.(check string) "source survives" log_path e.Oqf_catalog.Catalog.source;
            Alcotest.(check string) "schema survives" "log" e.Oqf_catalog.Catalog.schema
        | _ -> Alcotest.fail "one entry expected");
        check_matches_rebuild "reopened" reopened log_path);
    Alcotest.test_case "corpus runs straight off the catalog" `Quick (fun () ->
        let _, log_path, cat = setup_catalog 30 in
        let corpus = or_fail (Oqf.Corpus.of_catalog cat ~schema:"log") in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}
        in
        let via_catalog = or_fail (Oqf.Corpus.run corpus q) in
        let direct =
          or_fail
            (Oqf.Execute.make_source_full Fschema.Log_schema.view
               (Pat.Text.of_file log_path))
        in
        let via_direct = or_fail (Oqf.Execute.run direct q) in
        Alcotest.(check int)
          "same answers"
          (List.length via_direct.Oqf.Execute.rows)
          (List.length via_catalog.Oqf.Corpus.rows);
        (* two catalog loads of the same entry: second is a cache hit *)
        let (_ : (Pat.Instance.t, string) result) =
          Oqf_catalog.Catalog.load cat log_path
        in
        let s =
          Oqf_catalog.Instance_cache.stats (Oqf_catalog.Catalog.cache cat)
        in
        Alcotest.(check bool)
          "cache saw hits" true
          (s.Oqf_catalog.Instance_cache.hits > 0));
    Alcotest.test_case "per-name stats persist through the manifest" `Quick
      (fun () ->
        let _, log_path, cat = setup_catalog 20 in
        let stats_of c =
          match Oqf_catalog.Catalog.find c log_path with
          | Some e -> e.Oqf_catalog.Catalog.stats
          | None -> Alcotest.fail "entry vanished"
        in
        let stats = stats_of cat in
        Alcotest.(check (list string))
          "one stat line per indexed name"
          (List.sort compare log_keep)
          (List.sort compare (List.map (fun (n, _, _) -> n) stats));
        (* counts agree with the live instance *)
        let inst = or_fail (Oqf_catalog.Catalog.load cat log_path) in
        List.iter
          (fun (name, regions, mps) ->
            Alcotest.(check int) (name ^ " region count")
              (Pat.Region_set.cardinal (Pat.Instance.find inst name))
              regions;
            Alcotest.(check bool) (name ^ " match points plausible") true
              (mps >= 0 && (regions = 0 || mps > 0)))
          stats;
        (* ... and survive a close/reopen round-trip untouched *)
        let reopened =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        Alcotest.(check bool) "reopen preserves stats" true
          (stats = stats_of reopened));
    Alcotest.test_case "manifests without rstat lines still open" `Quick
      (fun () ->
        let _, log_path, cat = setup_catalog 6 in
        (* strip the stat lines, as a manifest from an older build *)
        let manifest =
          Filename.concat (Oqf_catalog.Catalog.dir cat) "CATALOG"
        in
        let stripped =
          read_file manifest |> String.split_on_char '\n'
          |> List.filter (fun l ->
                 not (String.starts_with ~prefix:"rstat " l))
          |> String.concat "\n"
        in
        write_file manifest stripped;
        let reopened = or_fail (Oqf_catalog.Catalog.open_dir
                                  (Oqf_catalog.Catalog.dir cat)) in
        match Oqf_catalog.Catalog.find reopened log_path with
        | Some e ->
            Alcotest.(check (list string)) "entry intact, stats empty" []
              (List.map (fun (n, _, _) -> n) e.Oqf_catalog.Catalog.stats)
        | None -> Alcotest.fail "legacy entry was dropped");
    Alcotest.test_case "adding the same source twice fails" `Quick (fun () ->
        let _, log_path, cat = setup_catalog 4 in
        match Oqf_catalog.Catalog.add cat ~schema:"log" log_path with
        | Ok _ -> Alcotest.fail "duplicate add must fail"
        | Error _ -> ());
    Alcotest.test_case "unknown index names are rejected" `Quick (fun () ->
        let dir = temp_dir () in
        let log_path = Filename.concat dir "x.log" in
        write_file log_path (log_text 3);
        let cat = or_fail (Oqf_catalog.Catalog.init (Filename.concat dir "cat")) in
        match
          Oqf_catalog.Catalog.add cat ~schema:"log" ~index:[ "Nonsense" ]
            log_path
        with
        | Ok _ -> Alcotest.fail "bad index name must fail"
        | Error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Crash safety, self-healing and offline repair                       *)

let manifest_path cat =
  Filename.concat (Oqf_catalog.Catalog.dir cat) "CATALOG"

let index_path cat source =
  let e = Option.get (Oqf_catalog.Catalog.find cat source) in
  Filename.concat (Oqf_catalog.Catalog.dir cat) e.Oqf_catalog.Catalog.index_file

(* damage an index file in a checksum-detectable way: flip one byte in
   the marshalled payload *)
let bit_flip_index cat source =
  let e = Option.get (Oqf_catalog.Catalog.find cat source) in
  let idx =
    Filename.concat (Oqf_catalog.Catalog.dir cat)
      e.Oqf_catalog.Catalog.index_file
  in
  let raw = Bytes.of_string (read_file idx) in
  let pos = Bytes.length raw - 7 in
  Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 0x01));
  write_file idx (Bytes.to_string raw);
  (* the instance cache is keyed by index file *)
  Oqf_catalog.Instance_cache.remove
    (Oqf_catalog.Catalog.cache cat)
    e.Oqf_catalog.Catalog.index_file

let setup_two_file_catalog () =
  let dir = temp_dir () in
  let a = Filename.concat dir "a.log" in
  let b = Filename.concat dir "b.log" in
  write_file a (log_text 8);
  write_file b (log_text 5);
  let cat = or_fail (Oqf_catalog.Catalog.init (Filename.concat dir "cat")) in
  let (_ : Oqf_catalog.Catalog.entry) =
    or_fail (Oqf_catalog.Catalog.add cat ~schema:"log" a)
  in
  let (_ : Oqf_catalog.Catalog.entry) =
    or_fail (Oqf_catalog.Catalog.add cat ~schema:"log" b)
  in
  (dir, a, b, cat)

(* Change one letter of the first log message in place: same length,
   still a log.  The source's atime and mtime are then set back to
   what they were, as a tool that preserves timestamps would; the
   pause first lets the clock leave the index file's mtime behind. *)
let edit_in_place_backdated path =
  let st = Unix.stat path in
  Unix.sleepf 0.02;
  let contents = Bytes.of_string (read_file path) in
  let i = ref (Bytes.index contents '"') in
  while not (Pat.Tokenizer.is_word_char (Bytes.get contents !i)) do
    incr i
  done;
  Bytes.set contents !i (if Bytes.get contents !i = 'x' then 'y' else 'x');
  write_file path (Bytes.to_string contents);
  Unix.utimes path st.Unix.st_atime st.Unix.st_mtime

let healed_counter = Obs.Metrics.counter "catalog.healed"

(* The format-2 body: the text and each name's (start, stop) list,
   marshalled. *)
type v2_payload = {
  contents : string;
  bindings : (string * (int * int) list) list;
}

let write_v2_index path instance =
  let payload =
    {
      contents = Pat.Text.unsafe_contents (Pat.Instance.text instance);
      bindings =
        List.map
          (fun name ->
            ( name,
              List.map
                (fun (r : Pat.Region.t) -> (r.start, r.stop))
                (Pat.Region_set.to_list (Pat.Instance.find instance name)) ))
          (Pat.Instance.names instance);
    }
  in
  let body = Marshal.to_string payload [] in
  write_file path ("OQF-INDEX-2\n" ^ Digest.string body ^ body)

let robustness_tests =
  [
    Alcotest.test_case "a crossing node table heals to the baseline's rows"
      `Quick (fun () ->
        let _, log_path, cat = setup_catalog 30 in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT e.Service, e.Level FROM Entries e WHERE e.Level = "WARN"|}
        in
        let render row =
          String.concat " | " (List.map Odb.Value.to_display_string row)
        in
        let baseline =
          let text = Pat.Text.of_file log_path in
          fst (or_fail (Oqf.Execute.run_baseline Fschema.Log_schema.view text q))
        in
        (* a format-3 body with a valid checksum whose node table crosses:
           A [0,5) and A [3,9), with B [3,4) inside both *)
        let varint n =
          let b = Buffer.create 2 in
          let rec go n =
            if n < 0x80 then Buffer.add_char b (Char.chr n)
            else begin
              Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
              go (n lsr 7)
            end
          in
          go n;
          Buffer.contents b
        in
        let body =
          String.concat ""
            [
              varint 10; "abcdefghij"; varint 2;
              varint 1; "A"; varint 2; varint 1; "B"; varint 1;
              varint 3;
              varint 0; varint 5; varint 0;
              varint 3; varint 6; varint 0;
              varint 0; varint 1; varint 1;
            ]
        in
        let idx = index_path cat log_path in
        write_file idx ("OQF-INDEX-3\n" ^ Digest.string body ^ body);
        (match Pat.Index_store.load_result ~path:idx with
        | Error (Pat.Index_store.Corrupt { reason = "regions not nested"; _ }) -> ()
        | Error e -> Alcotest.fail (Pat.Index_store.error_message e)
        | Ok _ -> Alcotest.fail "a crossing universe must not load");
        Oqf_catalog.Instance_cache.remove
          (Oqf_catalog.Catalog.cache cat)
          (Option.get (Oqf_catalog.Catalog.find cat log_path))
            .Oqf_catalog.Catalog.index_file;
        (* catalog query: the load heals *)
        let healed_before = Obs.Metrics.value healed_counter in
        let corpus = or_fail (Oqf.Corpus.of_catalog cat ~schema:"log") in
        let r = or_fail (Exec.Driver.run_parallel ~jobs:1 corpus q) in
        Alcotest.(check (list string))
          "rows after heal" (List.map render baseline)
          (List.map (fun (_, row) -> render row) r.Exec.Driver.rows);
        Alcotest.(check bool) "some rows" true (baseline <> []);
        Alcotest.(check bool)
          "catalog.healed incremented" true
          (Obs.Metrics.value healed_counter > healed_before));
    Alcotest.test_case "format-2 index: healed on load, rebuilt on refresh"
      `Quick (fun () ->
        let _, log_path, cat = setup_catalog 30 in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT e.Service, e.Level FROM Entries e WHERE e.Level = "WARN"|}
        in
        (* the rows [catalog query] prints, off the current corpus *)
        let rows cat =
          let corpus = or_fail (Oqf.Corpus.of_catalog cat ~schema:"log") in
          let r = or_fail (Exec.Driver.run_parallel ~jobs:1 corpus q) in
          List.map
            (fun (file, row) ->
              file ^ ": "
              ^ String.concat " | " (List.map Odb.Value.to_display_string row))
            r.Exec.Driver.rows
        in
        let want = rows cat in
        Alcotest.(check bool) "some rows" true (want <> []);
        (* a heal or rebuild writes a new generation's index file *)
        let downgrade () =
          let idx = index_path cat log_path in
          write_v2_index idx (or_fail (Oqf_catalog.Catalog.load cat log_path));
          (match Pat.Index_store.load_result ~path:idx with
          | Error (Pat.Index_store.Version_mismatch { found = 2; expected = 3; _ })
            ->
              ()
          | Error e -> Alcotest.fail (Pat.Index_store.error_message e)
          | Ok _ -> Alcotest.fail "a format-2 file must not load");
          Oqf_catalog.Instance_cache.remove
            (Oqf_catalog.Catalog.cache cat)
            (Option.get (Oqf_catalog.Catalog.find cat log_path))
              .Oqf_catalog.Catalog.index_file
        in
        let loads_as_format_3 msg =
          match Pat.Index_store.load_result ~path:(index_path cat log_path) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (msg ^ ": " ^ Pat.Index_store.error_message e)
        in
        (* catalog query --no-refresh: the load heals *)
        downgrade ();
        let healed_before = Obs.Metrics.value healed_counter in
        Alcotest.(check (list string)) "rows after heal" want (rows cat);
        Alcotest.(check bool)
          "catalog.healed incremented" true
          (Obs.Metrics.value healed_counter > healed_before);
        loads_as_format_3 "healed";
        (* catalog refresh: the pre-pass rebuilds *)
        downgrade ();
        (match or_fail (Oqf_catalog.Catalog.refresh cat log_path) with
        | Oqf_catalog.Catalog.Rebuilt _ -> ()
        | r ->
            Alcotest.failf "refresh: %a" Oqf_catalog.Catalog.pp_refresh r);
        loads_as_format_3 "rebuilt";
        Alcotest.(check (list string)) "rows after refresh" want (rows cat));
    Alcotest.test_case "torn manifest: salvage, warn, rewrite" `Quick
      (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        let manifest = manifest_path cat in
        let raw = read_file manifest in
        (* cut into the second entry's block, as a crash without atomic
           rename would *)
        write_file manifest (String.sub raw 0 (String.length raw - 15));
        let reopened =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        (match Oqf_catalog.Catalog.entries reopened with
        | [ e ] ->
            Alcotest.(check string) "first entry survives" a
              e.Oqf_catalog.Catalog.source
        | es -> Alcotest.failf "expected 1 salvaged entry, got %d" (List.length es));
        (match Oqf_catalog.Catalog.recovery_warnings reopened with
        | [ _ ] -> ()
        | _ -> Alcotest.fail "recovery must be reported");
        (* the salvaged manifest was rewritten at once: a second open
           is clean *)
        let again =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        Alcotest.(check (list string))
          "second open clean" []
          (Oqf_catalog.Catalog.recovery_warnings again));
    Alcotest.test_case "not-a-manifest still fails to open" `Quick (fun () ->
        let _, _, _, cat = setup_two_file_catalog () in
        write_file (manifest_path cat) "something else entirely\n";
        match Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat) with
        | Ok _ -> Alcotest.fail "bad magic must not open"
        | Error _ -> ());
    Alcotest.test_case "load self-heals a bit-flipped index" `Quick (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        bit_flip_index cat a;
        let healed_before = Obs.Metrics.value healed_counter in
        let loaded = or_fail (Oqf_catalog.Catalog.load cat a) in
        Alcotest.(check bool)
          "catalog.healed incremented" true
          (Obs.Metrics.value healed_counter > healed_before);
        let full =
          full_instance Fschema.Log_schema.view log_keep (Pat.Text.of_file a)
        in
        check_equal_instances ~msg:"healed instance equals rebuild" loaded full;
        (* the rewritten index is valid: a fresh open loads it without
           healing again *)
        let reopened =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        let healed_now = Obs.Metrics.value healed_counter in
        let (_ : Pat.Instance.t) = or_fail (Oqf_catalog.Catalog.load reopened a) in
        Alcotest.(check int) "no second heal" healed_now
          (Obs.Metrics.value healed_counter));
    Alcotest.test_case "load cannot heal when the source is gone" `Quick
      (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        bit_flip_index cat a;
        Sys.remove a;
        match Oqf_catalog.Catalog.load cat a with
        | Ok _ -> Alcotest.fail "no path to the data: load must fail"
        | Error e ->
            Alcotest.(check bool)
              "error names the missing source" true
              (let needle = "source file is missing" in
               let nh = String.length e and nn = String.length needle in
               let rec go i =
                 if i + nn > nh then false
                 else String.sub e i nn = needle || go (i + 1)
               in
               go 0));
    Alcotest.test_case "repair heals a corrupt index in place" `Quick
      (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        bit_flip_index cat a;
        (match Oqf_catalog.Catalog.repair cat with
        | [ (src, Oqf_catalog.Catalog.Healed _) ] ->
            Alcotest.(check string) "keyed by source" a src
        | acts -> Alcotest.failf "expected one heal, got %d actions" (List.length acts));
        match Oqf_catalog.Catalog.status cat with
        | [ (_, Oqf_catalog.Catalog.Fresh); (_, Oqf_catalog.Catalog.Fresh) ] -> ()
        | _ -> Alcotest.fail "everything fresh after repair");
    Alcotest.test_case "repair quarantines a sourceless entry and sweeps \
                        its orphan index" `Quick (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        Sys.remove a;
        let actions = Oqf_catalog.Catalog.repair cat in
        let quarantined, orphans =
          List.partition
            (fun (_, act) ->
              match act with
              | Oqf_catalog.Catalog.Quarantined _ -> true
              | _ -> false)
            actions
        in
        Alcotest.(check int) "one quarantine" 1 (List.length quarantined);
        Alcotest.(check string) "the sourceless entry" a (fst (List.hd quarantined));
        (* the drop commits a new generation whose inline retirement
           already deleted the dead index, so the orphan sweep finds
           nothing left to do *)
        Alcotest.(check int) "no orphans left for the sweep" 0
          (List.length orphans);
        (match Oqf_catalog.Catalog.entries cat with
        | [ e ] ->
            Alcotest.(check bool) "survivor is the other file" true
              (e.Oqf_catalog.Catalog.source <> a)
        | _ -> Alcotest.fail "one entry must survive");
        Alcotest.(check (list string))
          "no orphan files remain" []
          (Oqf_catalog.Catalog.orphan_index_files cat));
    Alcotest.test_case "repair on a healthy catalog is a no-op" `Quick
      (fun () ->
        let _, _, _, cat = setup_two_file_catalog () in
        Alcotest.(check int) "no actions" 0
          (List.length (Oqf_catalog.Catalog.repair cat)));
    Alcotest.test_case "robust corpus excludes only dead entries" `Quick
      (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        bit_flip_index cat a;
        Sys.remove a;
        let corpus, degraded =
          or_fail (Oqf.Corpus.of_catalog_robust cat ~schema:"log")
        in
        Alcotest.(check int) "one file served" 1
          (List.length (Oqf.Corpus.files corpus));
        match degraded with
        | [ d ] ->
            Alcotest.(check string) "the dead entry" a d.Oqf.Degrade.file;
            Alcotest.(check bool) "excluded" true
              (d.Oqf.Degrade.action = Oqf.Degrade.Excluded)
        | _ -> Alcotest.fail "one exclusion note expected");
  ]

(* ------------------------------------------------------------------ *)
(* Generations, snapshots and the watcher                              *)

let gen_pointer_file cat =
  Filename.concat (Oqf_catalog.Catalog.dir cat) "GEN"

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false else String.sub hay i nn = needle || go (i + 1)
  in
  go 0

let warned cat needle =
  List.exists
    (fun w -> has_substring w needle)
    (Oqf_catalog.Catalog.recovery_warnings cat)

(* Render answer rows to one comparable string: the property below is
   literally "the pinned reader's bytes never change". *)
let render_rows (rows : (string * Odb.Query_eval.row) list) =
  String.concat "\n"
    (List.map
       (fun (file, row) ->
         file ^ "|"
         ^ String.concat "," (List.map Odb.Value.to_display_string row))
       rows)

let iso_query =
  match
    Odb.Query_parser.parse
      "SELECT e.Service, e.Msg FROM Entries e WHERE e.Level = \"ERROR\""
  with
  | Ok q -> q
  | Error _ -> assert false

(* A reader pinned at generation G answers byte-identically while a
   writer commits G+1..G+k, at 1..8 jobs.  Each read evicts the
   pinned index from the instance cache first, so it genuinely
   re-reads the pinned generation's files from disk — proving the
   writer's commits never touch them. *)
let snapshot_isolation =
  QCheck.Test.make ~count:12
    ~name:"pinned snapshot is byte-stable under concurrent commits"
    QCheck.(triple (int_range 4 24) (int_range 1 5) (int_range 1 8))
    (fun (n, k, jobs) ->
      let dir = temp_dir () in
      let files = Array.init 3 (fun i -> Filename.concat dir (Printf.sprintf "f%d.log" i)) in
      let sizes = Array.init 3 (fun i -> n + i) in
      Array.iteri (fun i f -> write_file f (log_text sizes.(i))) files;
      let cat =
        match Oqf_catalog.Catalog.init (Filename.concat dir "cat") with
        | Ok c -> c
        | Error e -> QCheck.Test.fail_reportf "init: %s" e
      in
      Array.iter
        (fun f ->
          match Oqf_catalog.Catalog.add cat ~schema:"log" f with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "add: %s" e)
        files;
      let snap = Oqf_catalog.Catalog.pin cat in
      let g0 = Oqf_catalog.Catalog.snapshot_generation snap in
      let read () =
        List.iter
          (fun (e : Oqf_catalog.Catalog.entry) ->
            Oqf_catalog.Instance_cache.remove
              (Oqf_catalog.Catalog.cache cat)
              e.index_file)
          (Oqf_catalog.Catalog.snapshot_entries snap);
        let corpus, degraded =
          match Oqf.Corpus.of_snapshot snap ~schema:"log" with
          | Ok cd -> cd
          | Error e -> QCheck.Test.fail_reportf "of_snapshot: %s" e
        in
        if degraded <> [] then
          QCheck.Test.fail_reportf "pinned read degraded (%d files lost)"
            (List.length degraded);
        match Exec.Driver.run_parallel ~jobs corpus iso_query with
        | Ok out -> render_rows out.Exec.Driver.rows
        | Error e -> QCheck.Test.fail_reportf "query: %s" e
      in
      let reference = read () in
      for i = 1 to k do
        (* writer: append whole entries to one source (Log_gen's prefix
           property) and commit the refresh *)
        let j = (i - 1) mod Array.length files in
        sizes.(j) <- sizes.(j) + 2;
        write_file files.(j) (log_text sizes.(j));
        (match Oqf_catalog.Catalog.refresh cat files.(j) with
        | Ok _ -> ()
        | Error e -> QCheck.Test.fail_reportf "refresh %d: %s" i e);
        let now = read () in
        if now <> reference then
          QCheck.Test.fail_reportf
            "pinned rows changed after commit %d (gen %d -> %d)" i g0
            (Oqf_catalog.Catalog.generation cat)
      done;
      if Oqf_catalog.Catalog.generation cat <> g0 + k then
        QCheck.Test.fail_reportf "expected generation %d, got %d" (g0 + k)
          (Oqf_catalog.Catalog.generation cat);
      Oqf_catalog.Catalog.release snap;
      (* with the pin gone the superseded generations are retired: only
         the current generation's manifest image remains *)
      (match Oqf_catalog.Catalog.list_generations cat with
      | [ g ] when g = g0 + k -> ()
      | gs ->
          QCheck.Test.fail_reportf "expected only generation %d, got %d images"
            (g0 + k) (List.length gs));
      true)

let generation_tests =
  [
    QCheck_alcotest.to_alcotest snapshot_isolation;
    (* a crash between the CATALOG swap and the pointer move (the
       second gen.commit site) leaves a stale pointer: the manifest
       stays authoritative and the pointer is rewritten *)
    Alcotest.test_case "stale pointer after mid-commit crash is salvaged"
      `Quick (fun () ->
        let _, _, _, cat = setup_two_file_catalog () in
        let g = Oqf_catalog.Catalog.generation cat in
        Alcotest.(check bool) "two adds advanced the generation" true (g >= 2);
        write_file (gen_pointer_file cat) "oqf-gen 0\n";
        let reopened =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        Alcotest.(check int) "manifest generation wins" g
          (Oqf_catalog.Catalog.generation reopened);
        Alcotest.(check bool) "stale pointer reported" true
          (warned reopened "stale generation pointer");
        Alcotest.(check string) "pointer rewritten"
          (Printf.sprintf "oqf-gen %d\n" g)
          (read_file (gen_pointer_file reopened));
        let again =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        Alcotest.(check (list string))
          "second open clean" []
          (Oqf_catalog.Catalog.recovery_warnings again));
    (* a crash after MANIFEST.g(N+1) but before the CATALOG swap (the
       first gen.commit site) leaves the pointer behind a stray future
       image; if the pointer moved too, it reads ahead of the manifest
       and its number is adopted as the numbering floor *)
    Alcotest.test_case "pointer ahead of manifest becomes the numbering floor"
      `Quick (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        let g = Oqf_catalog.Catalog.generation cat in
        write_file (gen_pointer_file cat) (Printf.sprintf "oqf-gen %d\n" (g + 5));
        let reopened =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        Alcotest.(check int) "floor adopted" (g + 5)
          (Oqf_catalog.Catalog.generation reopened);
        Alcotest.(check bool) "adoption reported" true
          (warned reopened "ahead of manifest");
        (* the next commit numbers past the floor — no reuse *)
        write_file a (log_text 12);
        let (_ : Oqf_catalog.Catalog.refresh) =
          or_fail (Oqf_catalog.Catalog.refresh reopened a)
        in
        Alcotest.(check int) "next commit goes past the floor" (g + 6)
          (Oqf_catalog.Catalog.generation reopened));
    Alcotest.test_case "damaged and missing pointers are rewritten" `Quick
      (fun () ->
        let _, _, _, cat = setup_two_file_catalog () in
        let g = Oqf_catalog.Catalog.generation cat in
        write_file (gen_pointer_file cat) "junk\xff\n";
        let reopened =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        Alcotest.(check bool) "damage reported" true
          (warned reopened "unreadable");
        Alcotest.(check int) "generation kept" g
          (Oqf_catalog.Catalog.generation reopened);
        Sys.remove (gen_pointer_file cat);
        let reopened =
          or_fail (Oqf_catalog.Catalog.open_dir (Oqf_catalog.Catalog.dir cat))
        in
        Alcotest.(check bool) "absence reported" true
          (warned reopened "missing");
        Alcotest.(check string) "pointer rewritten"
          (Printf.sprintf "oqf-gen %d\n" g)
          (read_file (gen_pointer_file reopened)));
    Alcotest.test_case "repair collapses a stray future generation" `Quick
      (fun () ->
        let _, _, _, cat = setup_two_file_catalog () in
        let stray =
          Filename.concat
            (Filename.concat (Oqf_catalog.Catalog.dir cat) "generations")
            "MANIFEST.g99"
        in
        write_file stray
          (read_file
             (Filename.concat (Oqf_catalog.Catalog.dir cat) "CATALOG"));
        let actions = Oqf_catalog.Catalog.repair cat in
        Alcotest.(check bool) "collapse reported" true
          (List.exists
             (fun (_, a) ->
               a = Oqf_catalog.Catalog.Collapsed_generation 99)
             actions);
        Alcotest.(check bool) "stray image gone" false (Sys.file_exists stray));
    Alcotest.test_case "refresh_all continues past failing entries" `Quick
      (fun () ->
        let _, a, b, cat = setup_two_file_catalog () in
        Sys.remove a;
        let results = Oqf_catalog.Catalog.refresh_all cat in
        Alcotest.(check int) "both entries reported" 2 (List.length results);
        (match List.assoc a results with
        | Error e ->
            Alcotest.(check bool) "failure names the cause" true
              (has_substring e "source file is missing")
        | Ok _ -> Alcotest.fail "missing source must fail its refresh");
        match List.assoc b results with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "healthy entry must still refresh: %s" e);
    Alcotest.test_case "watch scan ingests appends and retires behind itself"
      `Quick (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        let g0 = Oqf_catalog.Catalog.generation cat in
        let r = Oqf_catalog.Watch.scan cat in
        Alcotest.(check int) "nothing stale: no refresh" 0
          r.Oqf_catalog.Watch.refreshed;
        write_file a (log_text 12);
        let events = ref [] in
        let r =
          Oqf_catalog.Watch.scan ~on_event:(fun e -> events := e :: !events) cat
        in
        Alcotest.(check int) "one refresh" 1 r.Oqf_catalog.Watch.refreshed;
        Alcotest.(check int) "generation advanced" (g0 + 1)
          r.Oqf_catalog.Watch.generation;
        (match !events with
        | [ Oqf_catalog.Watch.Refreshed (src, _) ] ->
            Alcotest.(check string) "event names the source" a src
        | _ -> Alcotest.fail "expected one Refreshed event");
        (* the refresh's own commit already retired the superseded
           generation inline (nothing pinned it), so the scan's sweep
           finds nothing left — either way only the current image
           remains *)
        Alcotest.(check (list int))
          "only the current generation survives"
          [ r.Oqf_catalog.Watch.generation ]
          (Oqf_catalog.Catalog.list_generations cat);
        let r = Oqf_catalog.Watch.scan cat in
        Alcotest.(check int) "steady state: no refresh" 0
          r.Oqf_catalog.Watch.refreshed);
    Alcotest.test_case "watch scan catches an in-place edit with a set-back mtime"
      `Quick (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        let before = Option.get (Oqf_catalog.Catalog.find cat a) in
        edit_in_place_backdated a;
        Alcotest.(check bool) "same length, same mtime" true
          ((Unix.stat a).Unix.st_size = before.Oqf_catalog.Catalog.length);
        let r = Oqf_catalog.Watch.scan cat in
        Alcotest.(check int) "one refresh" 1 r.Oqf_catalog.Watch.refreshed;
        let after = Option.get (Oqf_catalog.Catalog.find cat a) in
        Alcotest.(check string) "the entry records the edited contents"
          (Digest.to_hex (Digest.string (read_file a)))
          after.Oqf_catalog.Catalog.digest;
        check_matches_rebuild "after the edit" cat a;
        let r = Oqf_catalog.Watch.scan cat in
        Alcotest.(check int) "steady state: no refresh" 0
          r.Oqf_catalog.Watch.refreshed);
    Alcotest.test_case "background watcher ingests while running" `Quick
      (fun () ->
        let _, a, _, cat = setup_two_file_catalog () in
        let g0 = Oqf_catalog.Catalog.generation cat in
        let lock = Mutex.create () in
        let w = Oqf_catalog.Watch.start ~interval_ms:10. ~lock cat in
        write_file a (log_text 14);
        let deadline = Unix.gettimeofday () +. 5. in
        while
          Oqf_catalog.Catalog.generation cat = g0
          && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.01
        done;
        Oqf_catalog.Watch.stop w;
        Alcotest.(check bool) "watcher committed the append" true
          (Oqf_catalog.Catalog.generation cat > g0));
  ]

let suites =
  [
    ("catalog.incremental", incremental_tests);
    ("catalog.index_store", index_store_tests);
    ("catalog.cache", cache_tests);
    ("catalog.catalog", catalog_tests);
    ("catalog.robustness", robustness_tests);
    ("catalog.generations", generation_tests);
  ]
