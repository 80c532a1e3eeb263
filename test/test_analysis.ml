(* The static analyzer: diagnostic plumbing, per-code unit cases on a
   hand-built RIG, qcheck soundness of the emptiness codes against the
   naive reference evaluator, and schema checks. *)

module D = Analysis.Diagnostic

let parse = Ralg.Expr_parser.parse_exn

(* A -> B -> C, D isolated: (A, C) is a walk but not an edge, D is
   unreachable from everything. *)
let rig =
  Ralg.Rig.create
    ~names:[ "A"; "B"; "C"; "D" ]
    ~edges:[ ("A", "B"); ("B", "C") ]

let codes ds = List.map (fun d -> d.D.code) ds
let has code ds = List.mem code (codes ds)

let check ?cost_threshold text =
  Analysis.Expr_check.check ?cost_threshold ~text rig (parse text)

(* --- diagnostic plumbing ------------------------------------------- *)

let span_of_word_whole_words_only () =
  let text = "Author > Authors" in
  (match D.span_of_word ~text "Authors" with
  | Some { D.start; stop } ->
      Alcotest.(check (pair int int)) "whole word, not the prefix" (9, 16)
        (start, stop)
  | None -> Alcotest.fail "Authors not found");
  Alcotest.(check bool) "absent word has no span" true
    (D.span_of_word ~text "Name" = None)

let sort_ranks_errors_first () =
  let mk sev code = D.make ~code ~severity:sev "m" in
  let sorted = D.sort [ mk D.Hint "OQF003"; mk D.Error "OQF002"; mk D.Warning "OQF005" ] in
  Alcotest.(check (list string)) "severity order"
    [ "OQF002"; "OQF005"; "OQF003" ]
    (codes sorted);
  Alcotest.(check bool) "has_errors" true (D.has_errors sorted);
  let e, w, h = D.count sorted in
  Alcotest.(check (list int)) "counts" [ 1; 1; 1 ] [ e; w; h ]

let json_field_shape () =
  let d =
    D.make ~span:{ D.start = 3; stop = 7 } ~subject:"r" ~detail:"why"
      ~code:"OQF001" ~severity:D.Error "boom"
  in
  Alcotest.(check string) "object rendering"
    {|{"code":"OQF001","severity":"error","subject":"r","message":"boom","detail":"why","span":{"start":3,"stop":7}}|}
    (Obs.Jsonx.to_string (D.to_json d));
  let bare = D.make ~code:"OQF005" ~severity:D.Warning "m" in
  Alcotest.(check string) "optional fields omitted"
    {|{"code":"OQF005","severity":"warning","message":"m"}|}
    (Obs.Jsonx.to_string (D.to_json bare));
  Alcotest.(check string) "empty list" "[]" (D.list_to_json [])

let registry_covers_every_emitted_code () =
  let registered = List.map (fun (c, _, _) -> c) D.registry in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " registered") true (List.mem c registered))
    [
      "OQF001"; "OQF002"; "OQF003"; "OQF004"; "OQF005"; "OQF006"; "OQF101";
      "OQF102"; "OQF103"; "OQF201"; "OQF202"; "OQF203"; "OQF301"; "OQF302";
      "OQF303"; "OQF304"; "OQF305";
    ]

(* The golden file pins the serialized JSON of every registered code:
   a registry edit (new code, changed severity or summary) must be a
   conscious change to the fixture too, because [oqf check --list-codes
   --format json] is machine-consumed by CI gates.  The test runs from
   the dune sandbox (fixtures/ is a declared dep) or from the workspace
   root under [dune exec]. *)
let golden_path name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "fixtures") name

let registry_json_matches_golden () =
  let path = golden_path "oqf_codes.golden.json" in
  if not (Sys.file_exists path) then
    Alcotest.failf "golden file %s not found (cwd %s)" path (Sys.getcwd ());
  let ic = open_in_bin path in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let rendered =
    D.list_to_json
      (List.map
         (fun (code, severity, message) -> D.make ~code ~severity message)
         D.registry)
  in
  Alcotest.(check string)
    "registry JSON is pinned (update test/fixtures/oqf_codes.golden.json \
     deliberately when adding codes)"
    (String.trim golden) (String.trim rendered)

let every_registered_code_renders () =
  List.iter
    (fun (code, severity, message) ->
      let d = D.make ~code ~severity message in
      let text = D.to_string d in
      Alcotest.(check bool) (code ^ " text rendering mentions the code") true
        (Astring.String.is_infix ~affix:code text);
      let json = Obs.Jsonx.to_string (D.to_json d) in
      Alcotest.(check bool) (code ^ " JSON rendering mentions the code") true
        (Astring.String.is_infix ~affix:("\"" ^ code ^ "\"") json);
      Alcotest.(check bool) (code ^ " summary is non-empty") true
        (String.length message > 0))
    D.registry

(* --- expression codes ---------------------------------------------- *)

let oqf001_trivially_empty () =
  let ds = check "A >d C" in
  Alcotest.(check bool) "OQF001 on non-edge direct inclusion" true
    (has "OQF001" ds);
  Alcotest.(check bool) "it is an error" true (D.has_errors ds);
  let ds = check "A > D" in
  Alcotest.(check bool) "OQF001 on unreachable pair" true (has "OQF001" ds);
  Alcotest.(check (list string)) "clean expression is clean" []
    (codes (check "A > B"))

let oqf002_unknown_name () =
  let ds = check "A > Nope" in
  Alcotest.(check bool) "OQF002 raised" true (has "OQF002" ds);
  Alcotest.(check bool) "unknown name is an error" true (D.has_errors ds)

let oqf003_004_optimizer_hints () =
  let ds = check "A >d B" in
  Alcotest.(check bool) "weaken-direct hint" true (has "OQF003" ds);
  Alcotest.(check bool) "hints alone are not errors" false (D.has_errors ds);
  let ds = check "A > B > C" in
  Alcotest.(check bool) "shorten hint" true (has "OQF004" ds)

let oqf005_dead_union_arm () =
  let ds = check "(A >d C) | (A > B)" in
  Alcotest.(check bool) "dead arm flagged" true (has "OQF005" ds);
  Alcotest.(check bool) "whole expression is not OQF001" false
    (has "OQF001" ds);
  Alcotest.(check bool) "a dead arm is only a warning" false (D.has_errors ds)

let oqf006_cost_threshold () =
  let ds = check ~cost_threshold:1. "A >d B" in
  Alcotest.(check bool) "tiny threshold trips OQF006" true (has "OQF006" ds);
  let ds = check ~cost_threshold:1e12 "A >d B" in
  Alcotest.(check bool) "huge threshold is quiet" false (has "OQF006" ds);
  (* weakened-away direct inclusions don't warn: A > B has no direct op *)
  let ds = check ~cost_threshold:1. "A > B" in
  Alcotest.(check bool) "no direct operator, no OQF006" false (has "OQF006" ds)

let spans_anchor_into_source () =
  List.iter
    (fun d ->
      match d.D.span with
      | None -> ()
      | Some { D.start; stop } ->
          Alcotest.(check bool) "span within text" true
            (0 <= start && start < stop && stop <= String.length "(A >d C) | (A > B)"))
    (check "(A >d C) | (A > B)")

(* --- qcheck soundness (satellite): anything the analyzer calls empty
   really is empty under the naive reference evaluator ---------------- *)

let soundness_flagged_exprs_are_empty =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         "OQF001/OQF005-flagged (sub)expressions evaluate empty (naive eval)"
       ~count:250
       QCheck.(make Gen.(int_bound 100000))
       (fun seed ->
         let seed = 1 + (seed mod 9973) in
         let rig, inst, prng = Test_ralg.Gen_instance.generate seed in
         let e =
           if Stdx.Prng.bool prng then Test_ralg.Gen_instance.random_chain prng rig
           else
             Test_ralg.random_general prng
               (Array.of_list (Ralg.Rig.names rig))
               3
         in
         let ds = Analysis.Expr_check.check rig e in
         (* OQF001: the whole expression must be empty on the instance *)
         if List.exists (fun d -> d.D.code = "OQF001") ds then begin
           let v = Support.Naive_eval.eval inst e in
           if not (Pat.Region_set.is_empty v) then
             QCheck.Test.fail_reportf "seed %d: OQF001 but %s is non-empty"
               seed (Ralg.Expr.to_string e)
         end;
         (* every subexpression behind an OQF001/OQF005 is standalone
            trivial; each must be empty on its own *)
         List.iter
           (fun sub ->
             let v = Support.Naive_eval.eval inst sub in
             if not (Pat.Region_set.is_empty v) then
               QCheck.Test.fail_reportf
                 "seed %d: flagged subexpression %s of %s is non-empty" seed
                 (Ralg.Expr.to_string sub) (Ralg.Expr.to_string e))
           (Analysis.Expr_check.trivial_subexprs rig e);
         true))

(* --- containment (tentpole): every lattice/congruence rule has a
   positive witness, and qcheck validates every Contained verdict
   against the naive reference evaluator ------------------------------ *)

module C = Analysis.Contain

let contained a b = C.leq rig (parse a) (parse b) = C.Contained

let contain_lattice_rules () =
  let yes a b =
    Alcotest.(check bool) (a ^ " contained in " ^ b) true (contained a b)
  and no a b =
    Alcotest.(check bool) (a ^ " unknown vs " ^ b) false (contained a b)
  in
  yes "A" "A";
  yes "A >d C" "B" (* trivially-empty left side (Prop 3.3) *);
  yes {|word["x"](A)|} "A" (* filters shrink *);
  yes "A > B" "A";
  yes "inner(A)" "A";
  yes "outer(A)" "A";
  yes "depth[1](A,B)" "A";
  yes "A & B" "A";
  yes "A - B" "A";
  yes "A | (A & B)" "A" (* join on the left *);
  yes "A" "A | B" (* join on the right *);
  yes "A & B" "B & A" (* meet decomposition *);
  no "A" "B";
  no "A" "A & B";
  no "A > B" "B"

let contain_congruence_rules () =
  let yes a b =
    Alcotest.(check bool) (a ^ " contained in " ^ b) true (contained a b)
  in
  yes "A >d B" "A > B" (* direct implies simple *);
  yes {|sigma["x"](A)|} {|word["x"](A)|} (* exact implies contains *);
  yes "depth[0](A,B)" "A >d B" (* depth-0 coincides with direct *);
  yes "A >d B" "depth[0](A,B)";
  yes "depth[2](A,B)" "A > B" (* a depth witness is an inclusion *);
  yes "(A & B) > C" "A > C" (* chains are covariant *);
  yes "A - B" "A - (B & C)" (* difference is right-contravariant *);
  yes "A > B" "A >d B"
  (* Prop 3.5a on this RIG: every A-to-B walk is one edge, so the
     optimizer weakens >d and both sides normalize to A > B *);
  (* selection prefix lattice has no concrete syntax; build the AST *)
  let sel s w e = Ralg.Expr.Select (s w, parse e) in
  Alcotest.(check bool) "prefix weakens to shorter prefix" true
    (C.leq rig
       (sel (fun w -> Ralg.Expr.Prefix_word w) "abc" "A")
       (sel (fun w -> Ralg.Expr.Prefix_word w) "ab" "A")
    = C.Contained);
  Alcotest.(check bool) "exact implies prefix of itself" true
    (C.leq rig
       (sel (fun w -> Ralg.Expr.Exactly_word w) "abc" "A")
       (sel (fun w -> Ralg.Expr.Prefix_word w) "a" "A")
    = C.Contained);
  Alcotest.(check bool) "strict chain implies non-strict" true
    (C.leq rig
       (Ralg.Expr.Chain_strict (parse "A", Ralg.Expr.Including, parse "B"))
       (parse "A > B")
    = C.Contained)

let contain_equiv_and_empty () =
  Alcotest.(check bool) "depth-0 equivalent to direct chain" true
    (C.equiv rig (parse "depth[0](A,B)") (parse "A >d B") = C.Contained);
  Alcotest.(check bool) "containment-empty difference" true
    (C.empty rig (parse {|word["x"](A) - A|}));
  Alcotest.(check bool) "Prop 3.3 emptiness still included" true
    (C.empty rig (parse "A >d C"));
  Alcotest.(check bool) "plain name is not empty" false (C.empty rig (parse "A"));
  Alcotest.(check bool) "unknown names give no verdict" true
    (C.leq rig (parse "Nope") (parse "Nope | A") = C.Unknown)

let contain_minimize_units () =
  let m s = Ralg.Expr.to_string (C.minimize rig (parse s)) in
  let id s = Alcotest.(check string) ("minimize keeps " ^ s) s (m s) in
  Alcotest.(check string) "drop implied conjunct" (m "A > B")
    (m "(A > B) & A");
  Alcotest.(check string) "drop subsumed union arm" (m "A")
    (m {|word["x"](A) | A|});
  Alcotest.(check string) "drop empty subtrahend" (m "A")
    (m "A - (B >d A)");
  Alcotest.(check string) "minimize recurses under chains" (m "(A & B) > C")
    (m "((A & B) & A) > C");
  id "A & B";
  id "A | B";
  id "A - B"

(* Derive [a] from [b] by sound strengthening steps, so the qcheck
   harness actually reaches Contained verdicts (a random pair almost
   never does) and every congruence rule gets semantic scrutiny. *)
let random_op prng =
  Stdx.Prng.choose prng
    [|
      Ralg.Expr.Including; Ralg.Expr.Directly_including; Ralg.Expr.Included;
      Ralg.Expr.Directly_included;
    |]

let random_selection prng =
  let w = Stdx.Prng.choose prng [| "a"; "b"; "c"; "ab" |] in
  match Stdx.Prng.int prng 3 with
  | 0 -> Ralg.Expr.Exactly_word w
  | 1 -> Ralg.Expr.Contains_word w
  | _ -> Ralg.Expr.Prefix_word w

let rec strengthen prng names e n =
  if n = 0 then e
  else begin
    let module E = Ralg.Expr in
    let r () = Test_ralg.random_general prng names 2 in
    let e' =
      match Stdx.Prng.int prng 10 with
      | 0 -> E.Select (random_selection prng, e)
      | 1 ->
          if Stdx.Prng.bool prng then E.Setop (E.Inter, e, r ())
          else E.Setop (E.Inter, r (), e)
      | 2 -> E.Setop (E.Diff, e, r ())
      | 3 -> E.Chain (e, random_op prng, r ())
      | 4 -> E.Chain_strict (e, random_op prng, r ())
      | 5 -> E.Innermost e
      | 6 -> E.Outermost e
      | 7 -> begin
          (* strengthen an operator in place *)
          match e with
          | E.Chain (a, E.Including, b) -> E.Chain (a, E.Directly_including, b)
          | E.Chain (a, E.Included, b) -> E.Chain (a, E.Directly_included, b)
          | E.Chain (a, op, b) -> E.Chain_strict (a, op, b)
          | _ -> E.Select (random_selection prng, e)
        end
      | 8 -> begin
          (* strengthen a selection, or pick one union arm *)
          match e with
          | E.Select (E.Contains_word w, x) -> E.Select (E.Exactly_word w, x)
          | E.Select (E.Prefix_word p, x) ->
              E.Select (E.Exactly_word (p ^ "b"), x)
          | E.Setop (E.Union, a, b) -> if Stdx.Prng.bool prng then a else b
          | _ -> E.Setop (E.Inter, e, r ())
        end
      | _ -> begin
          (* push the strengthening into a covariant operand, or grow a
             subtrahend (right-contravariance) *)
          match e with
          | E.Chain (a, op, b) -> E.Chain (strengthen prng names a 1, op, b)
          | E.Setop (E.Union, a, b) ->
              E.Setop (E.Union, strengthen prng names a 1, b)
          | E.Setop (E.Diff, a, b) ->
              E.Setop (E.Diff, a, E.Setop (E.Union, b, r ()))
          | _ -> E.Setop (E.Diff, e, r ())
        end
    in
    strengthen prng names e' (n - 1)
  end

let contained_verdicts_seen = ref 0

let soundness_containment =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         "Contained/empty/minimize verdicts hold under the naive evaluator"
       ~count:250
       QCheck.(make Gen.(int_bound 100000))
       (fun seed ->
         let seed = 1 + (seed mod 9973) in
         let rig, inst, prng = Test_ralg.Gen_instance.generate seed in
         let names = Array.of_list (Ralg.Rig.names rig) in
         let base = Test_ralg.random_general prng names 3 in
         let strong = strengthen prng names base (1 + Stdx.Prng.int prng 3) in
         let pairs =
           [
             (strong, base);
             ( Test_ralg.random_general prng names 2,
               Test_ralg.random_general prng names 2 );
           ]
         in
         List.iter
           (fun (a, b) ->
             if C.leq rig a b = C.Contained then begin
               incr contained_verdicts_seen;
               let va = Support.Naive_eval.eval inst a
               and vb = Support.Naive_eval.eval inst b in
               if not (Pat.Region_set.subset va vb) then
                 QCheck.Test.fail_reportf
                   "seed %d: claimed %s contained in %s, but a region escapes"
                   seed (Ralg.Expr.to_string a) (Ralg.Expr.to_string b)
             end)
           pairs;
         let e = Test_ralg.random_general prng names 3 in
         if
           C.empty rig e
           && not (Pat.Region_set.is_empty (Support.Naive_eval.eval inst e))
         then
           QCheck.Test.fail_reportf "seed %d: empty verdict on non-empty %s"
             seed (Ralg.Expr.to_string e);
         let m = C.minimize rig strong in
         if Ralg.Expr.size m > Ralg.Expr.size strong then
           QCheck.Test.fail_reportf "seed %d: minimize grew %s into %s" seed
             (Ralg.Expr.to_string strong) (Ralg.Expr.to_string m);
         if
           not
             (Pat.Region_set.equal
                (Support.Naive_eval.eval inst m)
                (Support.Naive_eval.eval inst strong))
         then
           QCheck.Test.fail_reportf
             "seed %d: minimize changed the answer of %s => %s" seed
             (Ralg.Expr.to_string strong) (Ralg.Expr.to_string m);
         true))

(* ordered after the qcheck case in the suite: the property run must
   actually have exercised the Contained branch, else it proves
   nothing *)
let containment_property_not_vacuous () =
  Alcotest.(check bool) "Contained verdicts were reached" true
    (!contained_verdicts_seen > 0)

(* --- schema checks -------------------------------------------------- *)

let ghost_view =
  let g =
    Fschema.Grammar.create_exn ~root:"Doc"
      [
        {
          Fschema.Grammar.lhs = "Doc";
          rhs =
            Fschema.Grammar.Seq
              [
                Fschema.Grammar.Lit "{";
                Fschema.Grammar.Star { nonterm = "Item"; separator = None };
                Fschema.Grammar.Lit "}";
              ];
        };
        {
          Fschema.Grammar.lhs = "Item";
          rhs =
            Fschema.Grammar.Seq
              [
                Fschema.Grammar.Lit "(";
                Fschema.Grammar.Nonterm "Name";
                Fschema.Grammar.Lit ")";
              ];
        };
        { Fschema.Grammar.lhs = "Name"; rhs = Fschema.Grammar.Token Word };
        { Fschema.Grammar.lhs = "Ghost"; rhs = Fschema.Grammar.Token Word };
      ]
  in
  Fschema.View.make ~grammar:g ~classes:[]

let oqf101_unreachable_nonterminal () =
  let ds = Analysis.Schema_check.check ghost_view in
  let unreachable =
    List.filter (fun d -> d.D.code = "OQF101") ds
    |> List.filter_map (fun d -> d.D.subject)
  in
  Alcotest.(check (list string)) "only Ghost is unreachable" [ "Ghost" ]
    unreachable

let oqf102_declared_rig_mismatch () =
  let grammar = ghost_view.Fschema.View.grammar in
  let derived = Fschema.Rig_of_grammar.full grammar in
  Alcotest.(check (list string)) "matching declaration is quiet" []
    (Analysis.Schema_check.check ~declared_rig:derived ghost_view
    |> List.filter (fun d -> d.D.code = "OQF102")
    |> codes);
  (* drop an edge and a node from the declaration: both diffs reported,
     as errors *)
  let declared =
    Ralg.Rig.create
      ~names:[ "Doc"; "Item"; "Ghost" ]
      ~edges:[ ("Doc", "Item") ]
  in
  let ds =
    Analysis.Schema_check.check ~declared_rig:declared ghost_view
    |> List.filter (fun d -> d.D.code = "OQF102")
  in
  Alcotest.(check bool) "mismatches found" true (List.length ds >= 2);
  Alcotest.(check bool) "inconsistency is an error" true (D.has_errors ds);
  let details = List.filter_map (fun d -> d.D.detail) ds in
  Alcotest.(check bool) "missing node named" true (List.mem "Name" details);
  Alcotest.(check bool) "missing edge named" true
    (List.mem "Item -> Name" details)

let bibtex_schema_is_error_free () =
  let view =
    match Oqf_catalog.Schemas.find "bibtex" with
    | Some v -> v
    | None -> Alcotest.fail "bibtex schema missing"
  in
  let ds = Analysis.Schema_check.check view in
  Alcotest.(check bool) "built-in schema has no errors" false (D.has_errors ds)

(* --- whole-query analysis ------------------------------------------ *)

let bibtex_env () =
  let view =
    match Oqf_catalog.Schemas.find "bibtex" with
    | Some v -> v
    | None -> Alcotest.fail "bibtex schema missing"
  in
  let index = Fschema.Grammar.indexable view.Fschema.View.grammar in
  Oqf.Compile.env view ~index

let query_check text =
  (Oqf.Check.query ~text (bibtex_env ()) (Odb.Query_parser.parse_exn text))
    .Oqf.Check.diagnostics

let query_impossible_path_is_oqf001 () =
  let ds =
    query_check {|SELECT r FROM References r WHERE r.Title.Last_Name = "C"|}
  in
  Alcotest.(check bool) "provably empty query is an error" true
    (has "OQF001" ds);
  Alcotest.(check bool) "path-level witness attached" true (has "OQF005" ds)

let query_unknown_attribute_warns () =
  let ds = query_check {|SELECT r.Bogus FROM References r|} in
  Alcotest.(check bool) "unknown attribute is OQF002" true (has "OQF002" ds);
  (* a SELECT item that reaches nothing projects no row: no refusal *)
  Alcotest.(check bool) "but only a warning" false (D.has_errors ds)

let query_clean_is_clean () =
  let ds = query_check {|SELECT r.Title FROM References r|} in
  Alcotest.(check (list string)) "no diagnostics" [] (codes ds)

let suites =
  [
    ( "analysis.diagnostic",
      [
        Alcotest.test_case "span_of_word matches whole words" `Quick
          span_of_word_whole_words_only;
        Alcotest.test_case "sort ranks errors first" `Quick
          sort_ranks_errors_first;
        Alcotest.test_case "json shape" `Quick json_field_shape;
        Alcotest.test_case "registry covers every emitted code" `Quick
          registry_covers_every_emitted_code;
        Alcotest.test_case "registry JSON matches the golden file" `Quick
          registry_json_matches_golden;
        Alcotest.test_case "every registered code renders" `Quick
          every_registered_code_renders;
      ] );
    ( "analysis.expr",
      [
        Alcotest.test_case "OQF001 trivially empty" `Quick
          oqf001_trivially_empty;
        Alcotest.test_case "OQF002 unknown name" `Quick oqf002_unknown_name;
        Alcotest.test_case "OQF003/OQF004 optimizer hints" `Quick
          oqf003_004_optimizer_hints;
        Alcotest.test_case "OQF005 dead union arm" `Quick oqf005_dead_union_arm;
        Alcotest.test_case "OQF006 cost threshold" `Quick oqf006_cost_threshold;
        Alcotest.test_case "spans stay inside the source" `Quick
          spans_anchor_into_source;
        soundness_flagged_exprs_are_empty;
      ] );
    ( "analysis.contain",
      [
        Alcotest.test_case "lattice rules" `Quick contain_lattice_rules;
        Alcotest.test_case "congruence rules" `Quick contain_congruence_rules;
        Alcotest.test_case "equiv and empty" `Quick contain_equiv_and_empty;
        Alcotest.test_case "minimize units" `Quick contain_minimize_units;
        soundness_containment;
        Alcotest.test_case "property run was not vacuous" `Quick
          containment_property_not_vacuous;
      ] );
    ( "analysis.schema",
      [
        Alcotest.test_case "OQF101 unreachable non-terminal" `Quick
          oqf101_unreachable_nonterminal;
        Alcotest.test_case "OQF102 declared RIG mismatch" `Quick
          oqf102_declared_rig_mismatch;
        Alcotest.test_case "built-in bibtex schema is error-free" `Quick
          bibtex_schema_is_error_free;
      ] );
    ( "analysis.query",
      [
        Alcotest.test_case "impossible path: OQF001 + OQF005" `Quick
          query_impossible_path_is_oqf001;
        Alcotest.test_case "unknown attribute: OQF002 warning" `Quick
          query_unknown_attribute_warns;
        Alcotest.test_case "clean query has no diagnostics" `Quick
          query_clean_is_clean;
      ] );
  ]
