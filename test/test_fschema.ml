(* Tests for structuring schemas: grammar validation, the parser
   engine, database-image construction, RIG derivation, and the three
   shipped schemas. *)

open Fschema

let parse_ok g s =
  match Parser_engine.parse g (Pat.Text.of_string s) with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse failed: %a" Parser_engine.pp_error e

(* The interpreter that [Parser_engine] replaced, copied verbatim: the
   reference its trees, error positions and error texts must equal.  It
   formats a message on every failed attempt, copies every literal it
   tries and allocates closures and option refs per sequence. *)
module Reference_engine = struct
  type error = Parser_engine.error = { position : int; expected : string }

  type ctx = {
    s : string;
    limit : int;
    grammar : Grammar.t;
    mutable best_pos : int;
    mutable best_expected : string;
  }

  let fail ctx pos expected =
    if pos >= ctx.best_pos then begin
      ctx.best_pos <- pos;
      ctx.best_expected <- expected
    end;
    None

  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

  let skip_ws ctx pos =
    let rec go p = if p < ctx.limit && is_ws ctx.s.[p] then go (p + 1) else p in
    go pos

  let is_word_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

  (* Returns (span_start, span_stop) of the literal, or records failure. *)
  let parse_lit ctx pos lit =
    let p = skip_ws ctx pos in
    let m = String.length lit in
    if p + m <= ctx.limit && String.sub ctx.s p m = lit then Some (p, p + m)
    else fail ctx p (Printf.sprintf "%S" lit)

  let parse_token ctx pos spec =
    let p = skip_ws ctx pos in
    match spec with
    | Grammar.Word ->
        let rec stop q =
          if q < ctx.limit && is_word_char ctx.s.[q] then stop (q + 1) else q
        in
        let q = stop p in
        if q > p then Some ((p, q), q) else fail ctx p "a word"
    | Grammar.Until stops ->
        let rec scan q =
          if q < ctx.limit && not (List.mem ctx.s.[q] stops) then scan (q + 1)
          else q
        in
        let q = scan p in
        (* trim trailing whitespace from the token span *)
        let rec trim q = if q > p && is_ws ctx.s.[q - 1] then trim (q - 1) else q in
        let q' = trim q in
        if q' > p then Some ((p, q'), q) else fail ctx p "text content"

  let rec parse_nonterm ctx name pos =
    let rec try_alts = function
      | [] -> fail ctx pos ("non-terminal " ^ name)
      | rhs :: rest -> begin
          match parse_rhs ctx name rhs pos with
          | Some _ as ok -> ok
          | None -> try_alts rest
        end
    in
    match Grammar.rules_of ctx.grammar name with
    | [] -> fail ctx pos ("defined non-terminal " ^ name)
    | alts -> try_alts alts

  and parse_rhs ctx name rhs pos =
    match rhs with
    | Grammar.Token spec -> begin
        match parse_token ctx pos spec with
        | Some ((a, b), next) ->
            Some
              ( { Parse_tree.symbol = name; start = a; stop = b; content = Leaf },
                next )
        | None -> None
      end
    | Grammar.Seq items -> begin
        let lo = ref None and hi = ref None in
        let touch a b =
          (match !lo with None -> lo := Some a | Some _ -> ());
          hi := Some b
        in
        let rec go items pos acc =
          match items with
          | [] -> Some (List.rev acc, pos)
          | Grammar.Lit lit :: rest -> begin
              match parse_lit ctx pos lit with
              | Some (a, b) ->
                  touch a b;
                  go rest b acc
              | None -> None
            end
          | Grammar.Tok spec :: rest -> begin
              match parse_token ctx pos spec with
              | Some ((a, b), next) ->
                  touch a b;
                  go rest next (Parse_tree.Text (a, b) :: acc)
              | None -> None
            end
          | Grammar.Nonterm n :: rest -> begin
              match parse_nonterm ctx n pos with
              | Some (node, next) ->
                  touch node.Parse_tree.start node.Parse_tree.stop;
                  go rest next (Parse_tree.Child node :: acc)
              | None -> None
            end
          | Grammar.Star { nonterm; separator } :: rest -> begin
              (* one deadline poll per element: a whole-file parse (the
                 naive fallback, a full scan) is a loop over the file's
                 entries, so a task's timeout can cut it short *)
              let rec elems acc pos =
                Obs.Deadline.check ();
                match parse_nonterm ctx nonterm pos with
                | None -> (List.rev acc, pos)
                | Some (node, next) -> begin
                    touch node.Parse_tree.start node.Parse_tree.stop;
                    match separator with
                    | None -> elems (node :: acc) next
                    | Some sep -> begin
                        match parse_lit ctx next sep with
                        | Some (_, after_sep) -> begin
                            (* the separator commits only if another
                               element follows *)
                            match parse_nonterm ctx nonterm after_sep with
                            | Some (node2, next2) ->
                                touch node2.Parse_tree.start node2.Parse_tree.stop;
                                continue_with (node2 :: node :: acc) next2
                            | None -> (List.rev (node :: acc), next)
                          end
                        | None -> (List.rev (node :: acc), next)
                      end
                  end
              and continue_with acc pos =
                Obs.Deadline.check ();
                match separator with
                | None -> elems acc pos
                | Some sep -> begin
                    match parse_lit ctx pos sep with
                    | Some (_, after_sep) -> begin
                        match parse_nonterm ctx nonterm after_sep with
                        | Some (node, next) ->
                            touch node.Parse_tree.start node.Parse_tree.stop;
                            continue_with (node :: acc) next
                        | None -> (List.rev acc, pos)
                      end
                    | None -> (List.rev acc, pos)
                  end
              in
              let children, next = elems [] pos in
              go rest next (Parse_tree.Children (nonterm, children) :: acc)
            end
        in
        match go items pos [] with
        | None -> None
        | Some (branches, next) -> begin
            match (!lo, !hi) with
            | Some a, Some b ->
                Some
                  ( {
                      Parse_tree.symbol = name;
                      start = a;
                      stop = b;
                      content = Branch branches;
                    },
                    next )
            | _ ->
                (* all items were empty repetitions: a zero-width node *)
                let p = skip_ws ctx pos in
                Some
                  ( {
                      Parse_tree.symbol = name;
                      start = p;
                      stop = p;
                      content = Branch branches;
                    },
                    next )
          end
      end

  let run grammar text ~symbol ~start ~stop =
    let ctx =
      {
        s = Pat.Text.unsafe_contents text;
        limit = stop;
        grammar;
        best_pos = start;
        best_expected = "input";
      }
    in
    match parse_nonterm ctx symbol start with
    | Some (node, next) ->
        let next = skip_ws ctx next in
        if next = stop then begin
          Stdx.Stats.(add_to bytes_parsed (stop - start));
          Ok node
        end
        else if ctx.best_pos > next then
          (* a longer parse was attempted and failed deeper in the input:
             that position explains the leftover better *)
          Error { position = ctx.best_pos; expected = ctx.best_expected }
        else Error { position = next; expected = "end of region" }
    | None -> Error { position = ctx.best_pos; expected = ctx.best_expected }

  let parse grammar text =
    run grammar text ~symbol:(Grammar.root grammar) ~start:0
      ~stop:(Pat.Text.length text)

  let parse_at grammar text ~symbol ~start ~stop = run grammar text ~symbol ~start ~stop
end

let grammar_tests =
  [
    Alcotest.test_case "bare non-terminal rejected" `Quick (fun () ->
        match
          Grammar.create ~root:"A"
            [
              { Grammar.lhs = "A"; rhs = Grammar.Seq [ Grammar.Nonterm "B" ] };
              { Grammar.lhs = "B"; rhs = Grammar.Token Grammar.Word };
            ]
        with
        | Error (Grammar.Spans_parent { lhs = "A"; item = "B" }) -> ()
        | Error e -> Alcotest.fail (Grammar.error_message e)
        | Ok _ -> Alcotest.fail "should be rejected");
    Alcotest.test_case "bare star rejected" `Quick (fun () ->
        match
          Grammar.create ~root:"A"
            [
              {
                Grammar.lhs = "A";
                rhs = Grammar.Seq [ Grammar.Star { nonterm = "B"; separator = None } ];
              };
              { Grammar.lhs = "B"; rhs = Grammar.Token Grammar.Word };
            ]
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "should be rejected");
    Alcotest.test_case "undefined non-terminal rejected" `Quick (fun () ->
        match
          Grammar.create ~root:"A"
            [ { Grammar.lhs = "A"; rhs = Grammar.Seq [ Grammar.Lit "x"; Grammar.Nonterm "Z" ] } ]
        with
        | Error e ->
            Alcotest.(check string) "msg" "undefined non-terminal: Z"
              (Grammar.error_message e)
        | Ok _ -> Alcotest.fail "should be rejected");
    Alcotest.test_case "duplicate non-terminal on one rhs rejected" `Quick
      (fun () ->
        match
          Grammar.create ~root:"A"
            [
              {
                Grammar.lhs = "A";
                rhs =
                  Grammar.Seq
                    [ Grammar.Lit "x"; Grammar.Nonterm "B"; Grammar.Nonterm "B" ];
              };
              { Grammar.lhs = "B"; rhs = Grammar.Token Grammar.Word };
            ]
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "should be rejected");
    Alcotest.test_case "a child whose siblings can be empty is rejected"
      `Quick (fun () ->
        let word lhs = { Grammar.lhs; rhs = Grammar.Token Grammar.Word } in
        let star nonterm = Grammar.Star { nonterm; separator = None } in
        let item rhs = { Grammar.lhs = "Item"; rhs = Grammar.Seq rhs } in
        let doc = { Grammar.lhs = "Doc"; rhs = Grammar.Seq [ Grammar.Lit "<d>"; star "Item"; Grammar.Lit "</d>" ] } in
        let check name expected rules =
          match (Grammar.create ~root:"Doc" (doc :: rules), expected) with
          | Ok _, None -> ()
          | Error (Grammar.Spans_parent { lhs; item }), Some (l, i)
            when lhs = l && item = i ->
              ()
          | Ok _, Some _ -> Alcotest.failf "%s: accepted" name
          | Error e, _ -> Alcotest.failf "%s: %s" name (Grammar.error_message e)
        in
        (* an item with no notes has exactly its head's extent *)
        check "Item -> Head Note*" (Some ("Item", "Head"))
          [ item [ Grammar.Nonterm "Head"; star "Note" ]; word "Head"; word "Note" ];
        (* Notes can match the empty string through its stars *)
        check "Item -> Head Notes" (Some ("Item", "Head"))
          [
            item [ Grammar.Nonterm "Head"; Grammar.Nonterm "Notes" ];
            { Grammar.lhs = "Notes"; rhs = Grammar.Seq [ star "Note"; star "Tag" ] };
            word "Head"; word "Note"; word "Tag";
          ];
        (* a literal, or a token sibling, keeps the parent strictly larger *)
        check "Item -> Head Note* \";\"" None
          [ item [ Grammar.Nonterm "Head"; star "Note"; Grammar.Lit ";" ]; word "Head"; word "Note" ];
        check "Item -> First Last" None
          [ item [ Grammar.Nonterm "First"; Grammar.Nonterm "Last" ]; word "First"; word "Last" ]);
    Alcotest.test_case "indexable excludes the root" `Quick (fun () ->
        Alcotest.(check bool)
          "no Ref_set" true
          (not (List.mem "Ref_set" (Grammar.indexable Bibtex_schema.grammar))));
    Alcotest.test_case "alternatives allowed" `Quick (fun () ->
        let g =
          Grammar.create_exn ~root:"A"
            [
              { Grammar.lhs = "A"; rhs = Grammar.Seq [ Grammar.Lit "n"; Grammar.Tok Grammar.Word ] };
              { Grammar.lhs = "A"; rhs = Grammar.Token Grammar.Word };
            ]
        in
        Alcotest.(check int) "two alternatives" 2 (List.length (Grammar.rules_of g "A")));
  ]

let engine_tests =
  [
    Alcotest.test_case "spans are strict and cover delimiters" `Quick
      (fun () ->
        let tree = parse_ok Bibtex_schema.grammar Bibtex_schema.sample in
        Alcotest.(check bool) "strict" true (Parse_tree.strictly_nested tree));
    Alcotest.test_case "token spans are trimmed" `Quick (fun () ->
        let g =
          Grammar.create_exn ~root:"A"
            [
              { Grammar.lhs = "A"; rhs = Grammar.Seq [ Grammar.Lit "<"; Grammar.Nonterm "B"; Grammar.Lit ">" ] };
              { Grammar.lhs = "B"; rhs = Grammar.Token (Grammar.Until [ '>' ]) };
            ]
        in
        let text = Pat.Text.of_string "<  hello world  >" in
        match Parser_engine.parse g text with
        | Ok tree -> begin
            match tree.Parse_tree.content with
            | Parse_tree.Branch [ Parse_tree.Child b ] ->
                Alcotest.(check string)
                  "trimmed" "hello world"
                  (Pat.Text.sub text ~pos:b.Parse_tree.start
                     ~len:(b.Parse_tree.stop - b.Parse_tree.start))
            | _ -> Alcotest.fail "unexpected shape"
          end
        | Error e -> Alcotest.failf "parse: %a" Parser_engine.pp_error e);
    Alcotest.test_case "star with separator" `Quick (fun () ->
        let g =
          Grammar.create_exn ~root:"L"
            [
              {
                Grammar.lhs = "L";
                rhs =
                  Grammar.Seq
                    [
                      Grammar.Lit "(";
                      Grammar.Star { nonterm = "W"; separator = Some "," };
                      Grammar.Lit ")";
                    ];
              };
              { Grammar.lhs = "W"; rhs = Grammar.Token Grammar.Word };
            ]
        in
        let count s =
          match Parser_engine.parse g (Pat.Text.of_string s) with
          | Ok tree -> begin
              match tree.Parse_tree.content with
              | Parse_tree.Branch [ Parse_tree.Children (_, cs) ] ->
                  List.length cs
              | _ -> -1
            end
          | Error _ -> -1
        in
        Alcotest.(check int) "three" 3 (count "(a, b, c)");
        Alcotest.(check int) "one" 1 (count "(a)");
        Alcotest.(check int) "zero" 0 (count "()"));
    Alcotest.test_case "separator without following element backtracks" `Quick
      (fun () ->
        (* "(a,)" must fail: the comma commits only before an element *)
        let g =
          Grammar.create_exn ~root:"L"
            [
              {
                Grammar.lhs = "L";
                rhs =
                  Grammar.Seq
                    [
                      Grammar.Lit "(";
                      Grammar.Star { nonterm = "W"; separator = Some "," };
                      Grammar.Lit ")";
                    ];
              };
              { Grammar.lhs = "W"; rhs = Grammar.Token Grammar.Word };
            ]
        in
        match Parser_engine.parse g (Pat.Text.of_string "(a,)") with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "should fail on dangling separator");
    Alcotest.test_case "ordered alternatives" `Quick (fun () ->
        let g =
          Grammar.create_exn ~root:"A"
            [
              { Grammar.lhs = "A"; rhs = Grammar.Seq [ Grammar.Lit "x"; Grammar.Nonterm "B" ] };
              { Grammar.lhs = "B"; rhs = Grammar.Seq [ Grammar.Lit "n:"; Grammar.Tok Grammar.Word ] };
              { Grammar.lhs = "B"; rhs = Grammar.Token Grammar.Word };
            ]
        in
        (match Parser_engine.parse g (Pat.Text.of_string "x n: foo") with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "alt1: %a" Parser_engine.pp_error e);
        match Parser_engine.parse g (Pat.Text.of_string "x foo") with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "alt2: %a" Parser_engine.pp_error e);
    Alcotest.test_case "failure reports deepest position" `Quick (fun () ->
        match
          Parser_engine.parse Bibtex_schema.grammar
            (Pat.Text.of_string
               "%% bibliography\n@INCOLLECTION{K, AUTHOR = {A B}, OOPS")
        with
        | Error e ->
            Alcotest.(check bool) "past the authors" true
              (e.Parser_engine.position > 30)
        | Ok _ -> Alcotest.fail "should fail");
    Alcotest.test_case "parse_at materialises a slice" `Quick (fun () ->
        let text = Pat.Text.of_string Bibtex_schema.sample in
        let tree = parse_ok Bibtex_schema.grammar Bibtex_schema.sample in
        let refs =
          List.filter (fun (s, _) -> s = "Reference")
            (Parse_tree.all_regions tree)
        in
        Alcotest.(check int) "two refs" 2 (List.length refs);
        List.iter
          (fun (_, (r : Pat.Region.t)) ->
            match
              Parser_engine.parse_at Bibtex_schema.grammar text
                ~symbol:"Reference" ~start:r.start ~stop:r.stop
            with
            | Ok sub -> Alcotest.(check string) "symbol" "Reference" sub.Parse_tree.symbol
            | Error e -> Alcotest.failf "parse_at: %a" Parser_engine.pp_error e)
          refs);
    Alcotest.test_case "describe_error points at line and column" `Quick
      (fun () ->
        let bad = "== log ==\n[ts] level=ERROR service=auth msg=oops\n" in
        let text = Pat.Text.of_string bad in
        match Parser_engine.parse Log_schema.grammar text with
        | Ok _ -> Alcotest.fail "should fail (unquoted message)"
        | Error e ->
            let desc = Parser_engine.describe_error text e in
            let has needle =
              let n = String.length desc and m = String.length needle in
              let rec go i =
                i + m <= n && (String.sub desc i m = needle || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) "line 2" true (has "line 2");
            Alcotest.(check bool) "caret" true (has "^");
            Alcotest.(check bool) "snippet" true (has "level=ERROR"));
    Alcotest.test_case "describe_error on an empty text" `Quick (fun () ->
        let text = Pat.Text.of_string "" in
        match Parser_engine.parse Log_schema.grammar text with
        | Ok _ -> Alcotest.fail "should fail"
        | Error e ->
            Alcotest.(check string)
              "description"
              "parse failure at line 1, column 1: expected non-terminal Log\n  \n  ^"
              (Parser_engine.describe_error text e));
    Alcotest.test_case "parse tree rendering respects keep" `Quick (fun () ->
        let tree = parse_ok Bibtex_schema.grammar Bibtex_schema.sample in
        let render keep =
          Format.asprintf "%a" (Parse_tree.pp ?keep) tree
        in
        let full = render None in
        let partial = render (Some [ "Reference"; "Last_Name" ]) in
        let count_lines s needle =
          List.length
            (List.filter
               (fun line ->
                 String.length line >= String.length needle
                 && String.trim line |> fun t ->
                    String.length t >= String.length needle
                    && String.sub t 0 (String.length needle) = needle)
               (String.split_on_char '\n' s))
        in
        Alcotest.(check int) "refs in full" 2 (count_lines full "Reference ");
        Alcotest.(check int) "refs in partial" 2 (count_lines partial "Reference ");
        (* the partial view hides authors but keeps the promoted last names *)
        Alcotest.(check int) "no authors in partial" 0
          (count_lines partial "Authors ");
        Alcotest.(check int) "five last names" 5
          (count_lines partial "Last_Name "));
    Alcotest.test_case "bytes_parsed is counted" `Quick (fun () ->
        let before = Stdx.Stats.(value bytes_parsed) in
        ignore (parse_ok Log_schema.grammar Log_schema.sample);
        Alcotest.(check bool) "grew" true
          (Stdx.Stats.(value bytes_parsed) > before));
  ]

let builder_tests =
  [
    Alcotest.test_case "bibtex image has the paper's structure" `Quick
      (fun () ->
        let text = Pat.Text.of_string Bibtex_schema.sample in
        let tree = parse_ok Bibtex_schema.grammar Bibtex_schema.sample in
        match Builder.value_of_tree text tree with
        | Odb.Value.Set (first :: _) -> begin
            match first with
            | Odb.Value.Variant ("Reference", Odb.Value.Tuple fields) ->
                Alcotest.(check (list string))
                  "fields" Bibtex_schema.field_names (List.map fst fields)
            | _ -> Alcotest.fail "expected a tagged Reference tuple"
          end
        | _ -> Alcotest.fail "expected a set of references");
    Alcotest.test_case "load populates class extents" `Quick (fun () ->
        let text = Pat.Text.of_string Bibtex_schema.sample in
        match View.load_file Bibtex_schema.view text with
        | Ok db ->
            Alcotest.(check int) "two refs" 2
              (Odb.Database.cardinal db "References")
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "instance_of_tree builds requested names only" `Quick
      (fun () ->
        let text = Pat.Text.of_string Bibtex_schema.sample in
        match
          View.index_file Bibtex_schema.view text
            ~keep:[ "Reference"; "Last_Name" ]
        with
        | Ok inst ->
            Alcotest.(check (list string))
              "names" [ "Last_Name"; "Reference" ] (Pat.Instance.names inst);
            Alcotest.(check int) "two refs" 2
              (Pat.Region_set.cardinal (Pat.Instance.find inst "Reference"));
            (* 2 authors + 1 editor + 1 author + 1 editor = 5 last names *)
            Alcotest.(check int) "five last names" 5
              (Pat.Region_set.cardinal (Pat.Instance.find inst "Last_Name"))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "scoped indexing keeps only in-scope regions" `Quick
      (fun () ->
        (* §7: index only the last names residing in an Authors region *)
        let text = Pat.Text.of_string Bibtex_schema.sample in
        match
          View.index_file_specs Bibtex_schema.view text
            ~specs:
              [
                View.Plain "Reference";
                View.Scoped
                  {
                    name = "Last_Name";
                    within = "Authors";
                    alias = "Author_Last_Name";
                  };
              ]
        with
        | Error e -> Alcotest.fail e
        | Ok inst ->
            (* sample: 3 author last names, 2 editor last names *)
            Alcotest.(check int) "authors only" 3
              (Pat.Region_set.cardinal (Pat.Instance.find inst "Author_Last_Name"));
            (* the scoped index answers the paper's query exactly with
               simple inclusion and two indexed names *)
            let wi = Pat.Instance.word_index inst in
            let hits =
              Pat.Region_set.including
                (Pat.Instance.find inst "Reference")
                (Pat.Word_index.select_exact wi "Chang"
                   (Pat.Instance.find inst "Author_Last_Name"))
            in
            Alcotest.(check int) "one reference authored by Chang" 1
              (Pat.Region_set.cardinal hits));
    Alcotest.test_case "log image" `Quick (fun () ->
        let text = Pat.Text.of_string Log_schema.sample in
        match View.load_file Log_schema.view text with
        | Ok db -> begin
            Alcotest.(check int) "three entries" 3
              (Odb.Database.cardinal db "Entries");
            match Odb.Database.extent db "Entries" with
            | first :: _ ->
                Alcotest.(check bool)
                  "level attr" true
                  (Odb.Value.field first "Level" = Some (Odb.Value.Str "ERROR"))
            | [] -> Alcotest.fail "no entries"
          end
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "sgml image nests sections" `Quick (fun () ->
        let text = Pat.Text.of_string Sgml_schema.sample in
        match View.load_file Sgml_schema.view text with
        | Ok db ->
            (* every section (nested included) surfaces in the extent *)
            Alcotest.(check int) "five sections" 5
              (Odb.Database.cardinal db "Sections")
        | Error e -> Alcotest.fail e);
  ]

let rig_tests =
  [
    Alcotest.test_case "bibtex RIG matches the paper's figure" `Quick
      (fun () ->
        let rig = Rig_of_grammar.full Bibtex_schema.grammar in
        Alcotest.(check bool) "Ref->Authors" true
          (Ralg.Rig.has_edge rig "Reference" "Authors");
        Alcotest.(check bool) "Authors->Name" true
          (Ralg.Rig.has_edge rig "Authors" "Name");
        Alcotest.(check bool) "Editors->Name" true
          (Ralg.Rig.has_edge rig "Editors" "Name");
        Alcotest.(check bool) "Name->Last" true
          (Ralg.Rig.has_edge rig "Name" "Last_Name");
        Alcotest.(check bool) "no Authors->Editors" false
          (Ralg.Rig.has_edge rig "Authors" "Editors"));
    Alcotest.test_case "partial RIG of §6.1" `Quick (fun () ->
        let rig =
          Rig_of_grammar.for_index Bibtex_schema.grammar
            ~keep:[ "Reference"; "Key"; "Last_Name" ]
        in
        Alcotest.(check (list (pair string string)))
          "edges"
          [ ("Reference", "Key"); ("Reference", "Last_Name") ]
          (Ralg.Rig.edges rig));
    Alcotest.test_case "sgml RIG is cyclic" `Quick (fun () ->
        let rig = Rig_of_grammar.full Sgml_schema.grammar in
        Alcotest.(check bool) "self edge" true
          (Ralg.Rig.has_edge rig "Section" "Section"));
    Alcotest.test_case "generated instances satisfy the derived RIG" `Quick
      (fun () ->
        let text =
          Pat.Text.of_string
            (Workload.Bibtex_gen.generate (Workload.Bibtex_gen.with_size 5))
        in
        match
          View.index_file Bibtex_schema.view text
            ~keep:(Grammar.indexable Bibtex_schema.grammar)
        with
        | Ok inst -> begin
            let rig = Rig_of_grammar.full Bibtex_schema.grammar in
            match Pat.Instance.satisfies_rig inst ~edges:(Ralg.Rig.edges rig) with
            | None -> ()
            | Some (a, b) -> Alcotest.failf "violation (%s,%s)" a b
          end
        | Error e -> Alcotest.fail e);
  ]

let workload_tests =
  [
    Alcotest.test_case "bibtex generator output parses" `Quick (fun () ->
        let s = Workload.Bibtex_gen.generate (Workload.Bibtex_gen.with_size 50) in
        let tree = parse_ok Bibtex_schema.grammar s in
        let refs =
          List.length
            (List.filter (fun (n, _) -> n = "Reference")
               (Parse_tree.all_regions tree))
        in
        Alcotest.(check int) "fifty" 50 refs);
    Alcotest.test_case "bibtex generation is deterministic" `Quick (fun () ->
        let p = Workload.Bibtex_gen.with_size 10 in
        Alcotest.(check string)
          "equal" (Workload.Bibtex_gen.generate p) (Workload.Bibtex_gen.generate p));
    Alcotest.test_case "log generator output parses" `Quick (fun () ->
        let s = Workload.Log_gen.generate (Workload.Log_gen.with_size 40) in
        let tree = parse_ok Log_schema.grammar s in
        let entries =
          List.length
            (List.filter (fun (n, _) -> n = "Entry")
               (Parse_tree.all_regions tree))
        in
        Alcotest.(check int) "forty" 40 entries);
    Alcotest.test_case "mbox sample and generator output parse" `Quick
      (fun () ->
        ignore (parse_ok Mbox_schema.grammar Mbox_schema.sample);
        let s = Workload.Mbox_gen.generate (Workload.Mbox_gen.with_size 30) in
        let tree = parse_ok Mbox_schema.grammar s in
        let messages =
          List.length
            (List.filter (fun (n, _) -> n = "Message")
               (Parse_tree.all_regions tree))
        in
        Alcotest.(check int) "thirty" 30 messages;
        Alcotest.(check bool) "strict" true (Parse_tree.strictly_nested tree));
    Alcotest.test_case "sgml generator output parses and nests" `Quick
      (fun () ->
        let s = Workload.Sgml_gen.generate (Workload.Sgml_gen.with_depth 5) in
        let tree = parse_ok Sgml_schema.grammar s in
        Alcotest.(check bool) "strict" true (Parse_tree.strictly_nested tree);
        (* depth-5 nesting must exist *)
        let rec depth (t : Parse_tree.t) =
          match t.Parse_tree.content with
          | Parse_tree.Leaf -> 0
          | Parse_tree.Branch bs ->
              1
              + List.fold_left
                  (fun acc b ->
                    match b with
                    | Parse_tree.Child c -> max acc (depth c)
                    | Parse_tree.Children (_, cs) ->
                        List.fold_left (fun a c -> max a (depth c)) acc cs
                    | Parse_tree.Text _ -> acc)
                  0 bs
        in
        Alcotest.(check bool) "deep" true (depth tree >= 5));
    Alcotest.test_case "zipf skew shows in author names" `Quick (fun () ->
        let s =
          Workload.Bibtex_gen.generate
            { (Workload.Bibtex_gen.with_size 200) with zipf_s = 1.4 }
        in
        (* rank-0 name should be much more frequent than a deep rank *)
        let occurrences w =
          let rec go i acc =
            if i + String.length w > String.length s then acc
            else if String.sub s i (String.length w) = w then go (i + 1) (acc + 1)
            else go (i + 1) acc
          in
          go 0 0
        in
        Alcotest.(check bool) "head >> tail" true
          (occurrences (Workload.Vocab.last_name 0)
          > 4 * max 1 (occurrences (Workload.Vocab.last_name 60))));
  ]

let contains_sub haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let schema_types_tests =
  [
    Alcotest.test_case "bibtex declarations match the paper's shape" `Quick
      (fun () ->
        let s = Schema_types.to_string Bibtex_schema.view in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("contains " ^ needle) true
              (contains_sub s needle))
          [
            "Class Reference = tuple(";
            "Type Authors = set(Name)";
            "Type Name = tuple(First_Name : First_Name, Last_Name : Last_Name)";
            "Type Ref_set = set(Reference)";
            "Type Last_Name = string";
          ]);
    Alcotest.test_case "alternatives derive a union type" `Quick (fun () ->
        let g =
          Grammar.create_exn ~root:"A"
            [
              { Grammar.lhs = "A"; rhs = Grammar.Seq [ Grammar.Lit "n:"; Grammar.Tok Grammar.Word ] };
              { Grammar.lhs = "A"; rhs = Grammar.Token Grammar.Word };
            ]
        in
        match List.assoc "A" (Schema_types.of_grammar g) with
        | Schema_types.Union_ty [ Schema_types.Str_ty; Schema_types.Str_ty ] -> ()
        | _ -> Alcotest.fail "expected a union of strings");
    Alcotest.test_case "star inside a sequence becomes a set field" `Quick
      (fun () ->
        match List.assoc "Section" (Schema_types.of_grammar Sgml_schema.grammar) with
        | Schema_types.Tuple_ty fields ->
            Alcotest.(check bool) "Section field is a set" true
              (List.assoc "Section" fields
              = Schema_types.Set_ty (Schema_types.Named "Section"))
        | _ -> Alcotest.fail "expected a tuple");
  ]

(* Render a parsed database image back to BibTeX text; parsing the
   rendered text must reproduce the image (round-trip stability of the
   parser + builder). *)
let render_reference v =
  let str path =
    match Odb.Path.navigate v (Odb.Path.of_strings path) with
    | [ Odb.Value.Str s ] -> s
    | _ -> Alcotest.fail "unexpected shape"
  in
  let names path =
    List.map
      (fun name ->
        Printf.sprintf "%s %s"
          (match Odb.Value.field name "First_Name" with
          | Some (Odb.Value.Str s) -> s
          | _ -> "?")
          (match Odb.Value.field name "Last_Name" with
          | Some (Odb.Value.Str s) -> s
          | _ -> "?"))
      (Odb.Path.navigate v (Odb.Path.of_strings path))
  in
  let strings path =
    List.map
      (function Odb.Value.Str s -> s | _ -> "?")
      (Odb.Path.navigate v (Odb.Path.of_strings path))
  in
  Printf.sprintf
    "@INCOLLECTION{%s, AUTHOR = {%s}, TITLE = {%s}, YEAR = {%s}, EDITOR = \
     {%s}, KEYWORDS = {%s}, CITES = {%s}, ABSTRACT = {%s}}"
    (str [ "Key" ])
    (String.concat " and " (names [ "Authors"; "Name" ]))
    (str [ "Title" ])
    (str [ "Year" ])
    (String.concat " and " (names [ "Editors"; "Name" ]))
    (String.concat "; " (strings [ "Keywords"; "Keyword" ]))
    (String.concat "; " (strings [ "Cites"; "Cite" ]))
    (str [ "Abstract" ])

let roundtrip_tests =
  [
    Alcotest.test_case "parse → render → parse is stable" `Slow (fun () ->
        for seed = 1 to 20 do
          let text0 =
            Workload.Bibtex_gen.generate
              { (Workload.Bibtex_gen.with_size 8) with seed }
          in
          let image text =
            match Parser_engine.parse Bibtex_schema.grammar (Pat.Text.of_string text) with
            | Ok tree -> Builder.value_of_tree (Pat.Text.of_string text) tree
            | Error e ->
                Alcotest.failf "seed %d: %a" seed Parser_engine.pp_error e
          in
          let v0 = image text0 in
          let rendered =
            match v0 with
            | Odb.Value.Set refs ->
                "%% bibliography\n"
                ^ String.concat "\n"
                    (List.map
                       (function
                         | Odb.Value.Variant ("Reference", r) ->
                             render_reference r
                         | _ -> Alcotest.fail "expected references")
                       refs)
            | _ -> Alcotest.fail "expected a set"
          in
          let v1 = image rendered in
          if not (Odb.Value.equal v0 v1) then
            Alcotest.failf "seed %d: round-trip changed the image" seed
        done);
  ]


(* One generated text of a shipped schema, small enough to parse a few
   hundred times. *)
let generated_text prng =
  let seed = Stdx.Prng.int prng 100_000 in
  let size = Stdx.Prng.int_in prng 0 10 in
  match Stdx.Prng.int prng 4 with
  | 0 ->
      ( "log",
        Log_schema.grammar,
        Workload.Log_gen.generate { (Workload.Log_gen.with_size size) with seed }
      )
  | 1 ->
      ( "bibtex",
        Bibtex_schema.grammar,
        Workload.Bibtex_gen.generate
          { (Workload.Bibtex_gen.with_size size) with seed } )
  | 2 ->
      ( "mbox",
        Mbox_schema.grammar,
        Workload.Mbox_gen.generate { (Workload.Mbox_gen.with_size size) with seed }
      )
  | _ ->
      ( "sgml",
        Sgml_schema.grammar,
        Workload.Sgml_gen.generate
          {
            (Workload.Sgml_gen.with_depth (1 + (size mod 3))) with
            seed;
            top_sections = size mod 4;
          } )

let delimiters = "{}[]<>\";,=/ \na0@"

(* The text as generated, a prefix of it, or the text with a few bytes
   replaced (mostly by the schemas' delimiters). *)
let mutated prng s =
  let n = String.length s in
  match Stdx.Prng.int prng 3 with
  | 0 -> ("intact", s)
  | 1 ->
      let k = Stdx.Prng.int prng (n + 1) in
      (Printf.sprintf "truncated to %d bytes" k, String.sub s 0 k)
  | _ ->
      let b = Bytes.of_string s in
      let flips =
        List.init (Stdx.Prng.int_in prng 1 3) (fun _ ->
            let i = Stdx.Prng.int prng (max n 1) in
            let c =
              if Stdx.Prng.int prng 4 = 0 then Char.chr (Stdx.Prng.int prng 256)
              else delimiters.[Stdx.Prng.int prng (String.length delimiters)]
            in
            if i < n then Bytes.set b i c;
            Printf.sprintf "%d:%C" i c)
      in
      ("bytes replaced at " ^ String.concat " " flips, Bytes.to_string b)

let parses_compared = ref 0
let parses_failed = ref 0

let same_outcome ~what text engine reference =
  incr parses_compared;
  match (engine, reference) with
  | Ok t, Ok r ->
      if t <> r then QCheck.Test.fail_reportf "%s: the trees differ" what
  | Error e, Error r ->
      incr parses_failed;
      if e <> r then
        QCheck.Test.fail_reportf
          "%s: error at %d expecting %s, reference at %d expecting %s" what
          e.Parser_engine.position e.expected r.Parser_engine.position
          r.expected;
      let describe = Parser_engine.describe_error text in
      if describe e <> describe r then
        QCheck.Test.fail_reportf "%s: the error descriptions differ" what
  | Ok _, Error r ->
      QCheck.Test.fail_reportf "%s: parsed, but the reference failed at %d" what
        r.Parser_engine.position
  | Error e, Ok _ ->
      QCheck.Test.fail_reportf "%s: failed at %d, but the reference parsed" what
        e.Parser_engine.position

(* The words one parse of each log entry allocates, on average. *)
let words_per_entry parse_at =
  let s = Workload.Log_gen.generate (Workload.Log_gen.with_size 200) in
  let text = Pat.Text.of_string s in
  let entries =
    List.filter_map
      (fun (sym, r) -> if sym = "Entry" then Some r else None)
      (Parse_tree.all_regions (parse_ok Log_schema.grammar s))
  in
  let before = Gc.minor_words () in
  List.iter
    (fun (r : Pat.Region.t) ->
      match
        parse_at Log_schema.grammar text ~symbol:"Entry" ~start:r.start
          ~stop:r.stop
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "an entry does not parse")
    entries;
  (Gc.minor_words () -. before) /. float_of_int (List.length entries)

(* The comparison, and a check that it was not vacuous: enough of the
   parses it compared succeeded and enough failed. *)
let reference_comparison test =
  let name, speed, run = QCheck_alcotest.to_alcotest test in
  ( name,
    speed,
    fun () ->
      parses_compared := 0;
      parses_failed := 0;
      run ();
      Alcotest.(check bool) "parses compared" true (!parses_compared > 1000);
      Alcotest.(check bool) "failures compared" true (!parses_failed > 50);
      Alcotest.(check bool) "successes compared" true
        (!parses_compared - !parses_failed > 1000) )

let reference_tests =
  [
    reference_comparison
      (QCheck.Test.make ~count:1000
         ~name:"parse and parse_at equal the reference interpreter"
         QCheck.(make Gen.(int_bound 1_000_000))
         (fun seed ->
           let prng = Stdx.Prng.create seed in
           let schema, grammar, original = generated_text prng in
           let change, s = mutated prng original in
           let text = Pat.Text.of_string s in
           let what fmt =
             Printf.sprintf ("seed %d (%s, %s): " ^^ fmt) seed schema change
           in
           same_outcome ~what:(what "parse") text
             (Parser_engine.parse grammar text)
             (Reference_engine.parse grammar text);
           (* every region an index of the original text holds, parsed
              in the (possibly changed) text *)
           let regions =
             match
               Reference_engine.parse grammar (Pat.Text.of_string original)
             with
             | Ok tree -> Parse_tree.all_regions tree
             | Error _ ->
                 QCheck.Test.fail_reportf "%s"
                   (what "the generated text does not parse")
           in
           List.iter
             (fun (symbol, (r : Pat.Region.t)) ->
               let start = r.start and stop = r.stop in
               if symbol <> Grammar.root grammar && stop <= String.length s then
                 same_outcome
                   ~what:(what "parse_at %s [%d,%d)" symbol start stop)
                   text
                   (Parser_engine.parse_at grammar text ~symbol ~start ~stop)
                   (Reference_engine.parse_at grammar text ~symbol ~start ~stop))
             regions;
           true));
    Alcotest.test_case "an undefined symbol fails as the reference does" `Quick
      (fun () ->
        let text = Pat.Text.of_string Log_schema.sample in
        let g = Log_schema.grammar in
        Alcotest.(check bool) "same error" true
          (Parser_engine.parse_at g text ~symbol:"Nope" ~start:0 ~stop:5
          = Reference_engine.parse_at g text ~symbol:"Nope" ~start:0 ~stop:5));
    Alcotest.test_case
      "a parsed log entry allocates a third of the reference's words" `Quick
      (fun () ->
        let reference = words_per_entry Reference_engine.parse_at in
        let engine = words_per_entry Parser_engine.parse_at in
        if engine > reference /. 3. then
          Alcotest.failf "%.0f words per entry, the reference %.0f" engine reference);
  ]

let suites =
  [
    ("fschema.grammar", grammar_tests);
    ("fschema.schema_types", schema_types_tests);
    ("fschema.roundtrip", roundtrip_tests);
    ("fschema.engine", engine_tests);
    ("fschema.reference", reference_tests);
    ("fschema.builder", builder_tests);
    ("fschema.rig", rig_tests);
    ("workload.generators", workload_tests);
  ]
