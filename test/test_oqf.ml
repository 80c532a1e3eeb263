(* End-to-end tests of the query compiler and two-phase executor.  The
   master property: for any query, oqf's result equals the standard
   database implementation's (full parse + load + evaluate), under full
   indexing, partial indexing, and no useful indexing at all. *)

open Fschema

let bibtex_text n =
  Pat.Text.of_string (Workload.Bibtex_gen.generate (Workload.Bibtex_gen.with_size n))

let rows_t =
  Alcotest.testable
    (Fmt.Dump.list (Fmt.Dump.list Odb.Value.pp))
    (List.equal (List.equal Odb.Value.equal))

let source view text ~index =
  match Oqf.Execute.make_source view text ~index with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* every indexable name unless [index] says otherwise *)
let source_of ?(index = None) view text =
  source view text
    ~index:(Option.value index ~default:(Grammar.indexable view.View.grammar))

let baseline_rows view text q =
  match Oqf.Execute.run_baseline view text q with
  | Ok (rows, _) -> rows
  | Error e -> Alcotest.fail e

let run_both ?index view text q_text =
  let q = Odb.Query_parser.parse_exn q_text in
  let indexed =
    match Oqf.Execute.run (source_of ?index view text) q with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (indexed, baseline_rows view text q)

let check_equiv ?index view text q_text =
  let indexed, baseline = run_both ?index view text q_text in
  Alcotest.check rows_t ("rows agree: " ^ q_text) baseline indexed.Oqf.Execute.rows;
  indexed

(* A query whose WHERE path reaches nothing: the analyzer refuses it
   as provably empty (OQF001), the standard implementation answers no
   row, and forced through, the indexed plan answers none either. *)
let check_refused ?index view text q_text =
  let q = Odb.Query_parser.parse_exn q_text in
  let src = source_of ?index view text in
  (match Oqf.Execute.run src q with
  | Ok _ -> Alcotest.failf "not refused: %s" q_text
  | Error e ->
      Alcotest.(check bool)
        ("OQF001: " ^ e) true
        (Astring.String.is_infix ~affix:"[OQF001]" e));
  let forced =
    match Oqf.Execute.run ~force:true src q with
    | Ok r -> r.Oqf.Execute.rows
    | Error e -> Alcotest.fail e
  in
  Alcotest.check rows_t ("forced: " ^ q_text) [] forced;
  Alcotest.check rows_t ("standard: " ^ q_text) [] (baseline_rows view text q)

(* The query battery run against the BibTeX corpus. *)
let bibtex_queries =
  [
    {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
    {|SELECT r FROM References r WHERE r.Editors.Name.Last_Name = "Chang"|};
    {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|};
    {|SELECT r FROM References r WHERE r.X1.X2.Last_Name = "Chang"|};
    {|SELECT r FROM References r WHERE r.Year = "1982"|};
    {|SELECT r FROM References r WHERE r.Key = "Ref0003"|};
    {|SELECT r FROM References r WHERE r.Keywords.Keyword = "Taylor series"|};
    {|SELECT r FROM References r WHERE r.Abstract CONTAINS "derivation"|};
    {|SELECT r FROM References r
      WHERE r.Authors.Name.Last_Name = "Chang" AND r.Year = "1982"|};
    {|SELECT r FROM References r
      WHERE r.Authors.Name.Last_Name = "Chang" OR r.Editors.Name.Last_Name = "Chang"|};
    {|SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = "Chang"|};
    {|SELECT r.Authors.Name.Last_Name FROM References r|};
    {|SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Corliss"|};
    {|SELECT r FROM References r, References s
      WHERE r.Editors.Name.Last_Name = s.Authors.Name.Last_Name|};
    {|SELECT r FROM References r WHERE r.Title = "Optimizing Queries Files"|};
    {|SELECT r FROM References r WHERE r.Authors.Name.First_Name = "Tova"|};
    {|SELECT r FROM References r WHERE r.Key STARTS WITH "Ref000"|};
    {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name STARTS WITH "C"|};
    {|SELECT r FROM References r WHERE r.Year STARTS WITH "19"|};
    (* Title's value is its carrier's string, so a further step
       projects nothing *)
    {|SELECT r.Title.Title_value FROM References r|};
  ]

(* Year's and Title's values are their carriers' strings, so a further
   step reaches nothing: refused, and empty in the standard answers. *)
let bibtex_refused =
  [
    {|SELECT r.Key FROM References r WHERE r.Year.Year_value = "1982"|};
    {|SELECT r.Key FROM References r WHERE r.Title.Title_value CONTAINS "Region"|};
  ]

(* The SGML battery: a carrier path and the closure step. *)
let sgml_queries =
  [
    {|SELECT s.Heading.Heading_text FROM Sections s|};
    {|SELECT s.Heading FROM Sections s WHERE s.Heading CONTAINS "level2"|};
    {|SELECT s FROM Sections s WHERE s.Section+.Heading CONTAINS "level3"|};
    {|SELECT s.Section+.Heading FROM Sections s|};
  ]

let equivalence_tests =
  [
    Alcotest.test_case "full indexing matches baseline (query battery)" `Slow
      (fun () ->
        let text = bibtex_text 40 in
        List.iter
          (fun q -> ignore (check_equiv Bibtex_schema.view text q))
          bibtex_queries;
        List.iter (check_refused Bibtex_schema.view text) bibtex_refused);
    Alcotest.test_case "partial indexing matches baseline (query battery)"
      `Slow
      (fun () ->
        let text = bibtex_text 40 in
        let partial_indices =
          [
            [ "Reference"; "Key"; "Last_Name" ];
            [ "Reference"; "Authors"; "Last_Name" ];
            [ "Reference"; "Authors"; "Editors"; "Name"; "Last_Name" ];
            [ "Reference"; "Year_value" ];
            [ "Reference" ];
          ]
        in
        List.iter
          (fun index ->
            List.iter
              (fun q ->
                ignore (check_equiv ~index:(Some index) Bibtex_schema.view text q))
              bibtex_queries;
            List.iter
              (check_refused ~index:(Some index) Bibtex_schema.view text)
              bibtex_refused)
          partial_indices);
    Alcotest.test_case "sgml battery under full and partial indexing" `Quick
      (fun () ->
        let text =
          Pat.Text.of_string
            (Workload.Sgml_gen.generate
               { (Workload.Sgml_gen.with_depth 2) with seed = 3 })
        in
        List.iter
          (fun index ->
            List.iter
              (fun q -> ignore (check_equiv ~index Sgml_schema.view text q))
              sgml_queries;
            check_refused ~index Sgml_schema.view text
              {|SELECT s FROM Sections s WHERE s.Heading.Heading_text CONTAINS "level2"|})
          [
            None;
            Some [ "Section" ];
            Some [ "Section"; "Heading" ];
            Some [ "Section"; "Heading_text" ];
            Some [ "Section"; "Para"; "Heading"; "Heading_text" ];
          ]);
    Alcotest.test_case "random partial index sets match baseline" `Slow
      (fun () ->
        let text = bibtex_text 25 in
        let all = Grammar.indexable Bibtex_schema.grammar in
        let prng = Stdx.Prng.create 2024 in
        for _ = 1 to 12 do
          let k = Stdx.Prng.int_in prng 1 (List.length all) in
          let index = "Reference" :: Stdx.Prng.sample prng k all in
          List.iter
            (fun q ->
              ignore (check_equiv ~index:(Some index) Bibtex_schema.view text q))
            [
              {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
              {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|};
              {|SELECT r.Key FROM References r WHERE r.Year = "1982"|};
            ]
        done);
    Alcotest.test_case "root not indexed falls back to full scan" `Quick
      (fun () ->
        let text = bibtex_text 10 in
        let r =
          check_equiv ~index:(Some [ "Last_Name" ]) Bibtex_schema.view text
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        Alcotest.(check bool) "plan is full scan" true
          (List.exists
             (fun vp -> vp.Oqf.Plan.candidates = Oqf.Plan.All)
             r.Oqf.Execute.plan.Oqf.Plan.var_plans));
    Alcotest.test_case "log schema queries" `Quick (fun () ->
        let text =
          Pat.Text.of_string (Workload.Log_gen.generate (Workload.Log_gen.with_size 60))
        in
        let battery =
          [
            {|SELECT e FROM Entries e WHERE e.Level = "ERROR"|};
            {|SELECT e FROM Entries e WHERE e.Service = "auth" AND e.Level = "ERROR"|};
            {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|};
            {|SELECT e FROM Entries e WHERE e.Message CONTAINS "index"|};
          ]
        in
        List.iter (fun q -> ignore (check_equiv Log_schema.view text q)) battery;
        (* and under partial index sets *)
        List.iter
          (fun index ->
            List.iter
              (fun q ->
                ignore (check_equiv ~index:(Some index) Log_schema.view text q))
              battery)
          [ [ "Entry"; "Level" ]; [ "Entry" ]; [ "Entry"; "Message" ] ]);
    Alcotest.test_case "mbox schema queries" `Quick (fun () ->
        let text =
          Pat.Text.of_string
            (Workload.Mbox_gen.generate (Workload.Mbox_gen.with_size 50))
        in
        let battery =
          [
            Printf.sprintf {|SELECT m FROM Messages m WHERE m.Sender = "%s"|}
              (Workload.Mbox_gen.address 0);
            Printf.sprintf
              {|SELECT m FROM Messages m WHERE m.Recipients.Recipient = "%s"|}
              (Workload.Mbox_gen.address 1);
            {|SELECT m FROM Messages m WHERE m.Subject STARTS WITH "re"|};
            {|SELECT m.Sender FROM Messages m WHERE m.Date = "2026-06-12"|};
            {|SELECT m FROM Messages m WHERE m.Body CONTAINS "candidate"|};
            {|SELECT m.Sender FROM Messages m, Messages n
              WHERE m.Sender = n.Recipients.Recipient|};
          ]
        in
        List.iter (fun q -> ignore (check_equiv Mbox_schema.view text q)) battery;
        List.iter
          (fun index ->
            List.iter
              (fun q ->
                ignore (check_equiv ~index:(Some index) Mbox_schema.view text q))
              battery)
          [
            [ "Message" ];
            [ "Message"; "Sender"; "Recipient" ];
            [ "Message"; "Subject_value"; "Date_value" ];
          ]);
    Alcotest.test_case "sgml partial index battery" `Quick (fun () ->
        let text =
          Pat.Text.of_string (Workload.Sgml_gen.generate (Workload.Sgml_gen.with_depth 4))
        in
        let battery =
          [
            {|SELECT s FROM Sections s WHERE s.Heading CONTAINS "background"|};
            {|SELECT s FROM Sections s WHERE s.*X.Para CONTAINS "index"|};
            {|SELECT s FROM Sections s WHERE s.Section+.Heading CONTAINS "level3"|};
          ]
        in
        List.iter
          (fun index ->
            List.iter
              (fun q ->
                ignore (check_equiv ~index:(Some index) Sgml_schema.view text q))
              battery)
          [ [ "Section" ]; [ "Section"; "Para" ]; [ "Section"; "Heading" ] ]);
    Alcotest.test_case "sgml schema queries (cyclic RIG)" `Quick (fun () ->
        let text =
          Pat.Text.of_string (Workload.Sgml_gen.generate (Workload.Sgml_gen.with_depth 4))
        in
        List.iter
          (fun q -> ignore (check_equiv Sgml_schema.view text q))
          [
            {|SELECT s FROM Sections s WHERE s.Heading CONTAINS "background"|};
            {|SELECT s FROM Sections s WHERE s.*X.Para CONTAINS "index"|};
            {|SELECT s FROM Sections s WHERE s.Section.Heading CONTAINS "level3"|};
            {|SELECT s FROM Sections s WHERE s.Section+.Heading CONTAINS "level3"|};
            {|SELECT s FROM Sections s WHERE s.Section+.Para CONTAINS "region"|};
          ]);
    Alcotest.test_case "closure step compiles to one exact inclusion" `Quick
      (fun () ->
        let text =
          Pat.Text.of_string
            (Workload.Sgml_gen.generate (Workload.Sgml_gen.with_depth 5))
        in
        let src =
          match Oqf.Execute.make_source_full Sgml_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT s FROM Sections s WHERE s.Section+.Heading CONTAINS "level4"|}
        in
        match Oqf.Execute.run src q with
        | Ok r ->
            (* sections nest only through sections, so a+ is exact *)
            Alcotest.(check bool) "exact" true r.Oqf.Execute.plan.Oqf.Plan.exact;
            let e = List.assoc "s" r.Oqf.Execute.evaluated in
            (* the closure is a single (strict) simple inclusion, not a
               fixpoint: one ⊃ for Section+, one ⊃d for .Heading *)
            Alcotest.(check int) "one simple inclusion" 1
              (Ralg.Expr.count_ops e Ralg.Expr.Including);
            Alcotest.(check int) "one direct inclusion" 1
              (Ralg.Expr.count_ops e Ralg.Expr.Directly_including)
        | Error e -> Alcotest.fail e);
  ]

let plan_tests =
  [
    Alcotest.test_case "paper query is exact and optimized under full index"
      `Quick
      (fun () ->
        let text = bibtex_text 10 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        match Oqf.Execute.run src q with
        | Ok r ->
            Alcotest.(check bool) "exact" true r.Oqf.Execute.plan.Oqf.Plan.exact;
            (* the evaluated expression must be the optimized form:
               Reference > Authors > sigma["Chang"](Last_Name) *)
            let e = List.assoc "r" r.Oqf.Execute.evaluated in
            Alcotest.(check string)
              "optimized"
              {|Reference > Authors > sigma["Chang"](Last_Name)|}
              (Ralg.Expr.to_string e)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "partial index of §6.1 is a superset plan" `Quick
      (fun () ->
        let text = bibtex_text 10 in
        let src =
          match
            Oqf.Execute.make_source Bibtex_schema.view text
              ~index:[ "Reference"; "Key"; "Last_Name" ]
          with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        match Oqf.Execute.run src q with
        | Ok r ->
            Alcotest.(check bool) "not exact" false
              r.Oqf.Execute.plan.Oqf.Plan.exact;
            (* candidates ⊇ answers, and strictly more when an editor
               Chang exists *)
            Alcotest.(check bool) "superset" true
              (r.Oqf.Execute.candidates_count >= r.Oqf.Execute.answers_count)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "key lookup with §6.1 index is exact" `Quick (fun () ->
        let text = bibtex_text 10 in
        let src =
          match
            Oqf.Execute.make_source Bibtex_schema.view text
              ~index:[ "Reference"; "Key"; "Last_Name" ]
          with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Key = "Ref0002"|}
        in
        match Oqf.Execute.run src q with
        | Ok r ->
            Alcotest.(check bool) "exact" true r.Oqf.Execute.plan.Oqf.Plan.exact;
            Alcotest.(check int) "one answer" 1 r.Oqf.Execute.answers_count
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "carrier hop: Year exact with only Year_value indexed"
      `Quick
      (fun () ->
        (* the query names Year; only its value carrier is indexed, yet
           the plan is exact via the pass-through hop *)
        let text = bibtex_text 10 in
        let src =
          match
            Oqf.Execute.make_source Bibtex_schema.view text
              ~index:[ "Reference"; "Year_value" ]
          with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Year = "1982"|}
        in
        match Oqf.Execute.run src q with
        | Ok r ->
            Alcotest.(check bool) "exact" true r.Oqf.Execute.plan.Oqf.Plan.exact;
            let e = List.assoc "r" r.Oqf.Execute.evaluated in
            Alcotest.(check bool) "selects on the carrier" true
              (List.mem "Year_value" (Ralg.Expr.names e))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "prefix plans are exact on atomic carriers" `Quick
      (fun () ->
        let text = bibtex_text 10 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Key STARTS WITH "Ref000"|}
        in
        match Oqf.Execute.run src q with
        | Ok r ->
            Alcotest.(check bool) "exact" true r.Oqf.Execute.plan.Oqf.Plan.exact;
            Alcotest.(check int) "ten keys" 10 r.Oqf.Execute.answers_count
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "projection falls back when the carrier is unindexed"
      `Quick
      (fun () ->
        (* regression: with Title indexed but Title_value not, the
           projection plan must not reference the unindexed carrier *)
        let text = bibtex_text 8 in
        let r =
          check_equiv
            ~index:(Some [ "Reference"; "Title" ])
            Bibtex_schema.view text
            {|SELECT r.Title FROM References r|}
        in
        Alcotest.(check bool) "materialize plan" true
          (match r.Oqf.Execute.plan.Oqf.Plan.select_plans with
          | [ Oqf.Plan.Materialize _ ] -> true
          | _ -> false));
    Alcotest.test_case "soak: 2000-reference corpus stays correct" `Slow
      (fun () ->
        let text = bibtex_text 2000 in
        List.iter
          (fun q -> ignore (check_equiv Bibtex_schema.view text q))
          [
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
            {|SELECT r.Key FROM References r WHERE r.Year = "1982"|};
            {|SELECT r FROM References r WHERE r.*X.Last_Name = "Consens"|};
          ]);
    Alcotest.test_case "impossible path compiles to empty" `Quick (fun () ->
        let text = bibtex_text 5 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Title.Last_Name = "Chang"|}
        in
        (* the analyzer proves the plan empty (OQF001) and refuses the
           unforced run *)
        (match Oqf.Execute.run src q with
        | Ok _ -> Alcotest.fail "expected a static-analysis refusal"
        | Error msg ->
            Alcotest.(check bool) "refusal mentions OQF001" true
              (Astring.String.is_infix ~affix:"OQF001" msg));
        (* --force executes anyway and finds the empty answer *)
        match Oqf.Execute.run ~force:true src q with
        | Ok r ->
            Alcotest.(check int) "no candidates" 0 r.Oqf.Execute.candidates_count;
            Alcotest.(check int) "no rows" 0 r.Oqf.Execute.answers_count;
            Alcotest.(check bool) "diagnostics kept in the outcome" true
              (List.exists
                 (fun (d : Analysis.Diagnostic.t) ->
                   d.Analysis.Diagnostic.code = "OQF001")
                 r.Oqf.Execute.diagnostics)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "unknown class is an error" `Quick (fun () ->
        let text = bibtex_text 5 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q = Odb.Query_parser.parse_exn {|SELECT x FROM Zooks x|} in
        match Oqf.Execute.run src q with
        | Error msg ->
            Alcotest.(check string) "msg" "unknown class: Zooks" msg
        | Ok _ -> Alcotest.fail "should fail");
    Alcotest.test_case "projection plan avoids parsing" `Quick (fun () ->
        let text = bibtex_text 30 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r.Authors.Name.Last_Name FROM References r WHERE r.Year = "1982"|}
        in
        match Oqf.Execute.run src q with
        | Ok r ->
            Alcotest.(check bool) "index-only" true
              (match r.Oqf.Execute.plan.Oqf.Plan.select_plans with
              | [ Oqf.Plan.Project_regions _ ] -> true
              | _ -> false);
            Alcotest.(check int) "no parsing" 0 r.Oqf.Execute.stats.bytes_parsed
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "exact plans skip re-filtering but still materialise"
      `Quick
      (fun () ->
        let text = bibtex_text 30 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        match Oqf.Execute.run src q with
        | Ok r ->
            Alcotest.(check int) "candidates = answers"
              r.Oqf.Execute.answers_count r.Oqf.Execute.candidates_count;
            Alcotest.(check bool) "parsed much less than the file" true
              (r.Oqf.Execute.stats.bytes_parsed < Pat.Text.length text / 2)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "optimize:false evaluates the naive chain" `Quick
      (fun () ->
        let text = bibtex_text 10 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        let with_opt =
          match Oqf.Execute.run ~optimize:true src q with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        let without =
          match Oqf.Execute.run ~optimize:false src q with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        Alcotest.check rows_t "same rows" with_opt.Oqf.Execute.rows
          without.Oqf.Execute.rows;
        let naive = List.assoc "r" without.Oqf.Execute.evaluated in
        Alcotest.(check bool) "naive uses >d" true
          (Ralg.Expr.count_ops naive Ralg.Expr.Directly_including > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Index-only projection (§5.2): an exact plan's projected values are
   the texts of the regions its variable's candidates descend to.  The
   descent must select exactly what the chain
   [Final ⊂d … ⊂d A1 ⊂d candidates] selects, strict on a link to the
   same name. *)

(* The indexed names an exact plan's single select item descends
   through, or [None] when it materializes. *)
let projected src q_text =
  let q = Odb.Query_parser.parse_exn q_text in
  match Oqf.Compile.compile src.Oqf.Execute.env q with
  | Error e -> Alcotest.fail (Oqf.Compile.error_message e)
  | Ok plan -> begin
      match plan.Oqf.Plan.select_plans with
      | [ Oqf.Plan.Project_regions { attrs; _ } ] -> Some attrs
      | _ -> None
    end

let chain_over ~root attrs cand =
  let rec go e above = function
    | [] -> e
    | a :: rest ->
        let n = Ralg.Expr.Name a in
        let link =
          if a = above then
            Ralg.Expr.Chain_strict (n, Ralg.Expr.Directly_included, e)
          else Ralg.Expr.Chain (n, Ralg.Expr.Directly_included, e)
        in
        go link a rest
  in
  go cand root attrs

(* Per schema: the view, its root, a text generator by seed and size,
   and select queries that project under full indexing. *)
let projection_corpora =
  [
    ( Bibtex_schema.view,
      "Reference",
      (fun seed n ->
        Workload.Bibtex_gen.generate
          { (Workload.Bibtex_gen.with_size n) with seed }),
      [
        {|SELECT r.Title FROM References r
          WHERE r.Authors.Name.Last_Name = "Chang"|};
        {|SELECT r.Title FROM References r WHERE r.*X.Last_Name = "Milo"|};
        {|SELECT r.Authors.Name.Last_Name FROM References r
          WHERE r.Year = "1982"|};
        {|SELECT r.Keywords.Keyword FROM References r|};
        {|SELECT r.Year FROM References r WHERE r.Key STARTS WITH "Ref000"|};
        {|SELECT r.Editors.Name.First_Name FROM References r
          WHERE r.Title CONTAINS "Retrieval"|};
      ] );
    ( Log_schema.view,
      "Entry",
      (fun seed n ->
        Workload.Log_gen.generate { (Workload.Log_gen.with_size n) with seed }),
      [
        {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|};
        {|SELECT e.Level FROM Entries e WHERE e.Service = "db"|};
        {|SELECT e.Timestamp FROM Entries e WHERE e.Message CONTAINS "index"|};
        {|SELECT e.Service FROM Entries e|};
      ] );
    ( Sgml_schema.view,
      "Section",
      (fun seed n ->
        Workload.Sgml_gen.generate
          {
            (Workload.Sgml_gen.with_depth (1 + (n mod 5))) with
            seed;
            top_sections = 1 + (n mod 3);
            fanout = 2;
          }),
      [
        {|SELECT s.Heading FROM Sections s WHERE s.Para CONTAINS "index"|};
        (* self-nested: the first step is strict *)
        {|SELECT s.Section.Heading FROM Sections s|};
        {|SELECT s.Section.Section.Heading FROM Sections s
          WHERE s.Heading CONTAINS "appendix"|};
        {|SELECT s.Heading FROM Sections s
          WHERE s.Section.Heading CONTAINS "level2"|};
      ] );
  ]

(* Under full indexing or a random index set holding the root, a
   projecting plan's descent from its candidates equals the chain over
   the candidate expression, and its rows the standard implementation's. *)
let descent_equals_chain =
  QCheck.Test.make ~count:150
    ~name:"projection descent == chain over the candidates (Ralg.Eval)"
    QCheck.(
      quad (int_bound 2) (int_bound 1000) (int_range 1 14) (int_bound 1000))
    (fun (corpus, seed, n, pick) ->
      let view, root, gen, queries = List.nth projection_corpora corpus in
      let text = Pat.Text.of_string (gen seed n) in
      let prng = Stdx.Prng.create (seed + pick) in
      let all = Grammar.indexable view.View.grammar in
      let full = Stdx.Prng.bool prng in
      let index =
        if full then all
        else
          let k = Stdx.Prng.int_in prng 0 (List.length all) in
          root :: Stdx.Prng.sample prng k (List.filter (( <> ) root) all)
      in
      let src = source view text ~index in
      let q_text = List.nth queries (pick mod List.length queries) in
      let q = Odb.Query_parser.parse_exn q_text in
      (match Oqf.Compile.compile src.Oqf.Execute.env q with
      | Error e ->
          QCheck.Test.fail_reportf "%s: %s" q_text (Oqf.Compile.error_message e)
      | Ok
          {
            Oqf.Plan.select_plans = [ Oqf.Plan.Project_regions { attrs; _ } ];
            var_plans = [ { Oqf.Plan.candidates = Oqf.Plan.Expr cand; _ } ];
            _;
          } ->
          let inst = src.Oqf.Execute.instance in
          let descent =
            Oqf.Execute.project src ~root ~attrs (Ralg.Eval.eval inst cand)
          in
          let chain = Ralg.Eval.eval inst (chain_over ~root attrs cand) in
          if not (Pat.Region_set.equal descent chain) then
            QCheck.Test.fail_reportf
              "%s under {%s}: descent has %d regions, chain %d" q_text
              (String.concat "," index)
              (Pat.Region_set.cardinal descent)
              (Pat.Region_set.cardinal chain)
      | Ok _ ->
          if full then
            QCheck.Test.fail_reportf "%s does not project under full indexing"
              q_text);
      match (Oqf.Execute.run src q, Oqf.Execute.run_baseline view text q) with
      | Ok r, Ok (baseline, _) -> r.Oqf.Execute.rows = baseline
      | Error e, _ | _, Error e -> QCheck.Test.fail_reportf "%s: %s" q_text e)

let projection_tests =
  [
    QCheck_alcotest.to_alcotest descent_equals_chain;
    Alcotest.test_case "which plans project" `Quick (fun () ->
        let bib =
          source Bibtex_schema.view (bibtex_text 8)
            ~index:(Grammar.indexable Bibtex_schema.grammar)
        in
        let log =
          source Log_schema.view
            (Pat.Text.of_string
               (Workload.Log_gen.generate (Workload.Log_gen.with_size 12)))
            ~index:(Grammar.indexable Log_schema.grammar)
        in
        let sgml =
          source Sgml_schema.view
            (Pat.Text.of_string
               (Workload.Sgml_gen.generate (Workload.Sgml_gen.with_depth 3)))
            ~index:(Grammar.indexable Sgml_schema.grammar)
        in
        let bib_on index = source Bibtex_schema.view (bibtex_text 8) ~index in
        List.iter
          (fun (src, q_text, expected) ->
            Alcotest.(check (option (list string))) q_text expected
              (projected src q_text))
          [
            (* the nested-path and *X templates of the benchmark *)
            ( bib,
              {|SELECT r.Title FROM References r
                WHERE r.Authors.Name.Last_Name = "Chang"|},
              Some [ "Title"; "Title_value" ] );
            ( bib,
              {|SELECT r.Title FROM References r
                WHERE r.*X.Last_Name = "Chang"|},
              Some [ "Title"; "Title_value" ] );
            ( log,
              {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|},
              Some [ "Service" ] );
            ( log,
              {|SELECT e.Level FROM Entries e WHERE e.Service = "db"|},
              Some [ "Level" ] );
            ( sgml,
              {|SELECT s.Section.Heading FROM Sections s|},
              Some [ "Section"; "Heading"; "Heading_text" ] );
            (* whole objects are parsed *)
            (log, {|SELECT e FROM Entries e WHERE e.Level = "ERROR"|}, None);
            ( bib,
              {|SELECT r FROM References r
                WHERE r.Authors.Name.Last_Name = "Chang"|},
              None );
            (* Title is not atomic and its carrier is not indexed *)
            ( bib_on [ "Reference"; "Title" ],
              {|SELECT r.Title FROM References r|},
              None );
            (* an attribute without a named region hides what lies
               between the root and Key *)
            (bib, {|SELECT r.Bogus.Key FROM References r|}, None);
            (* the path ends on an unindexed attribute *)
            ( bib_on [ "Reference"; "Title_value" ],
              {|SELECT r.Title FROM References r|},
              None );
            (* Reference to Last_Name is reachable through Authors and
               through Editors: not an exact link *)
            ( bib_on [ "Reference"; "Last_Name" ],
              {|SELECT r.Authors.Name.Last_Name FROM References r|},
              None );
            (* an inexact WHERE leaves the plan to re-filter *)
            ( log,
              {|SELECT e.Service FROM Entries e
                WHERE e.Level = "ERROR" OR e.Message = "a"|},
              None );
            (* a closure step descends any number of levels, which one
               direct-inclusion step cannot *)
            ( sgml,
              {|SELECT s.Section+.Heading FROM Sections s
                WHERE s.Heading CONTAINS "level1"|},
              None );
          ]);
    Alcotest.test_case "a projected closure step reaches every level" `Quick
      (fun () ->
        let text =
          Pat.Text.of_string
            (Workload.Sgml_gen.generate (Workload.Sgml_gen.with_depth 4))
        in
        let r =
          check_equiv Sgml_schema.view text
            {|SELECT s.Section+.Heading FROM Sections s
              WHERE s.Heading CONTAINS "level1"|}
        in
        Alcotest.(check bool) "deeper headings answered" true
          (r.Oqf.Execute.answers_count > 1));
  ]

(* ------------------------------------------------------------------ *)
(* Random query fuzzing: generate well-formed queries against the
   BibTeX view and check the executor against the baseline under
   arbitrary index subsets, and the advisor's exactness promise. *)

module Query_fuzz = struct
  let paths =
    [|
      [ "Authors"; "Name"; "Last_Name" ];
      [ "Authors"; "Name"; "First_Name" ];
      [ "Editors"; "Name"; "Last_Name" ];
      [ "*X"; "Last_Name" ];
      [ "X1"; "X2"; "Last_Name" ];
      [ "Year" ];
      [ "Key" ];
      [ "Keywords"; "Keyword" ];
      [ "Cites"; "Cite" ];
      [ "Title" ];
      [ "Abstract" ];
    |]

  let words =
    [|
      Workload.Vocab.last_name 0; Workload.Vocab.last_name 3;
      Workload.Vocab.last_name 60; Workload.Vocab.first_name 2;
      "1982"; "1994"; "Ref0003"; Workload.Vocab.keyword 1;
      Workload.Vocab.abstract_word 4; "nosuchword";
    |]

  let rec random_pred prng depth =
    let leaf () =
      let rp =
        { Odb.Query.var = "r"; path = Odb.Path.of_strings (Stdx.Prng.choose prng paths) }
      in
      let w = Stdx.Prng.choose prng words in
      match Stdx.Prng.int prng 100 with
      | k when k < 20 -> Odb.Query.Contains (rp, w)
      | k when k < 35 ->
          Odb.Query.Starts_with
            (rp, String.sub w 0 (min 3 (String.length w)))
      | _ -> Odb.Query.Eq_const (rp, w)
    in
    if depth = 0 then leaf ()
    else begin
      match Stdx.Prng.int prng 6 with
      | 0 | 1 | 2 -> leaf ()
      | 3 ->
          Odb.Query.And (random_pred prng (depth - 1), random_pred prng (depth - 1))
      | 4 ->
          Odb.Query.Or (random_pred prng (depth - 1), random_pred prng (depth - 1))
      | _ -> Odb.Query.Not (random_pred prng (depth - 1))
    end

  let random_query prng =
    let select =
      if Stdx.Prng.int prng 100 < 70 then [ Odb.Query.var "r" ]
      else
        [
          {
            Odb.Query.var = "r";
            path = Odb.Path.of_strings (Stdx.Prng.choose prng paths);
          };
        ]
    in
    {
      Odb.Query.select;
      from_ = [ ("References", "r") ];
      where = random_pred prng 2;
    }

  let random_index prng =
    let all = Grammar.indexable Bibtex_schema.grammar in
    let k = Stdx.Prng.int_in prng 0 (List.length all) in
    "Reference" :: Stdx.Prng.sample prng k all
end

let fuzz_tests =
  [
    Alcotest.test_case "fuzz: random queries, random index sets" `Slow
      (fun () ->
        let text = bibtex_text 25 in
        let prng = Stdx.Prng.create 314159 in
        for i = 1 to 250 do
          let q = Query_fuzz.random_query prng in
          let index = Query_fuzz.random_index prng in
          let src =
            match Oqf.Execute.make_source Bibtex_schema.view text ~index with
            | Ok s -> s
            | Error e -> Alcotest.fail e
          in
          let indexed =
            match Oqf.Execute.run src q with
            | Ok r -> r.Oqf.Execute.rows
            | Error e ->
                Alcotest.failf "case %d (%s): %s" i (Odb.Query.to_string q) e
          in
          let baseline =
            match Oqf.Execute.run_baseline Bibtex_schema.view text q with
            | Ok (rows, _) -> rows
            | Error e -> Alcotest.fail e
          in
          if indexed <> baseline then
            Alcotest.failf "case %d: rows differ for %s under {%s}" i
              (Odb.Query.to_string q)
              (String.concat "," index)
        done);
    Alcotest.test_case "fuzz: two-variable queries with joins and negation"
      `Slow
      (fun () ->
        let text = bibtex_text 15 in
        let prng = Stdx.Prng.create 424242 in
        let rec pred depth =
          let var = if Stdx.Prng.bool prng then "r" else "s" in
          let leaf () =
            if Stdx.Prng.int prng 100 < 25 then
              Odb.Query.Eq_paths
                ( {
                    Odb.Query.var = "r";
                    path = Odb.Path.of_strings (Stdx.Prng.choose prng Query_fuzz.paths);
                  },
                  {
                    Odb.Query.var = "s";
                    path = Odb.Path.of_strings (Stdx.Prng.choose prng Query_fuzz.paths);
                  } )
            else
              Odb.Query.Eq_const
                ( {
                    Odb.Query.var;
                    path = Odb.Path.of_strings (Stdx.Prng.choose prng Query_fuzz.paths);
                  },
                  Stdx.Prng.choose prng Query_fuzz.words )
          in
          if depth = 0 then leaf ()
          else begin
            match Stdx.Prng.int prng 6 with
            | 0 | 1 | 2 -> leaf ()
            | 3 -> Odb.Query.And (pred (depth - 1), pred (depth - 1))
            | 4 -> Odb.Query.Or (pred (depth - 1), pred (depth - 1))
            | _ -> Odb.Query.Not (pred (depth - 1))
          end
        in
        for i = 1 to 60 do
          let q =
            {
              Odb.Query.select =
                [
                  { Odb.Query.var = "r"; path = Odb.Path.of_strings [ "Key" ] };
                  { Odb.Query.var = "s"; path = Odb.Path.of_strings [ "Key" ] };
                ];
              from_ = [ ("References", "r"); ("References", "s") ];
              where = pred 2;
            }
          in
          let index = Query_fuzz.random_index prng in
          let src =
            match Oqf.Execute.make_source Bibtex_schema.view text ~index with
            | Ok s -> s
            | Error e -> Alcotest.fail e
          in
          let indexed =
            match Oqf.Execute.run src q with
            | Ok r -> r.Oqf.Execute.rows
            | Error e ->
                Alcotest.failf "case %d (%s): %s" i (Odb.Query.to_string q) e
          in
          let baseline =
            match Oqf.Execute.run_baseline Bibtex_schema.view text q with
            | Ok (rows, _) -> rows
            | Error e -> Alcotest.fail e
          in
          if indexed <> baseline then
            Alcotest.failf "case %d: rows differ for %s under {%s}" i
              (Odb.Query.to_string q)
              (String.concat "," index)
        done);
    Alcotest.test_case "fuzz: advised index sets give exact plans" `Slow
      (fun () ->
        let text = bibtex_text 15 in
        let prng = Stdx.Prng.create 2718 in
        for i = 1 to 60 do
          (* advisor exactness is promised for simple positive path
             selections (§7 considers SELECT-FROM-WHERE r.p = w) *)
          let rp =
            {
              Odb.Query.var = "r";
              path = Odb.Path.of_strings (Stdx.Prng.choose prng Query_fuzz.paths);
            }
          in
          let q =
            {
              Odb.Query.select = [ Odb.Query.var "r" ];
              from_ = [ ("References", "r") ];
              where = Odb.Query.Eq_const (rp, Stdx.Prng.choose prng Query_fuzz.words);
            }
          in
          match Oqf.Advisor.required_indices Bibtex_schema.view q with
          | Error e -> Alcotest.failf "case %d: advisor failed: %s" i e
          | Ok names -> begin
              let src =
                match
                  Oqf.Execute.make_source Bibtex_schema.view text ~index:names
                with
                | Ok s -> s
                | Error e -> Alcotest.fail e
              in
              match Oqf.Execute.run src q with
              | Ok r ->
                  if not r.Oqf.Execute.plan.Oqf.Plan.exact then
                    Alcotest.failf "case %d: advised {%s} not exact for %s" i
                      (String.concat "," names)
                      (Odb.Query.to_string q)
              | Error e -> Alcotest.failf "case %d: %s" i e
            end
        done);
  ]

let join_tests =
  [
    Alcotest.test_case "join assist shrinks candidates and stays correct"
      `Quick
      (fun () ->
        let text = bibtex_text 60 in
        let q_text =
          {|SELECT r FROM References r, References s
            WHERE r.Editors.Name.Last_Name = s.Authors.Name.Last_Name
            AND r.Year = "1982"|}
        in
        let r = check_equiv Bibtex_schema.view text q_text in
        Alcotest.(check bool) "assisted" true r.Oqf.Execute.join_assisted;
        Alcotest.(check bool) "fewer candidates than two full extents" true
          (r.Oqf.Execute.candidates_count < 120));
    Alcotest.test_case "join assist under partial indexing stays correct"
      `Quick
      (fun () ->
        let text = bibtex_text 40 in
        ignore
          (check_equiv
             ~index:(Some [ "Reference"; "Name"; "Last_Name" ])
             Bibtex_schema.view text
             {|SELECT r FROM References r, References s
               WHERE r.Editors.Name.Last_Name = s.Authors.Name.Last_Name|}));
    Alcotest.test_case "NOT over another variable keeps all candidates"
      `Quick
      (fun () ->
        (* regression: NOT s.… must not empty r's candidate set *)
        let text = bibtex_text 12 in
        ignore
          (check_equiv Bibtex_schema.view text
             {|SELECT r.Key FROM References r, References s
               WHERE r.Editors.Name.Last_Name = s.Authors.Name.Last_Name
               AND NOT s.Year = "1982"|});
        ignore
          (check_equiv Bibtex_schema.view text
             {|SELECT r.Key FROM References r, References s
               WHERE NOT (r.Year = "1982" AND s.Year = "1994")|}));
    Alcotest.test_case "cites join across entries" `Quick (fun () ->
        let text = bibtex_text 30 in
        let r =
          check_equiv Bibtex_schema.view text
            {|SELECT s.Key FROM References r, References s
              WHERE r.Cites.Cite = s.Key AND r.Authors.Name.Last_Name = "Chang"|}
        in
        Alcotest.(check bool) "assisted" true r.Oqf.Execute.join_assisted);
  ]

let corpus_tests =
  [
    Alcotest.test_case "corpus merges answers across files" `Quick (fun () ->
        let file seed n =
          Pat.Text.of_string
            (Workload.Bibtex_gen.generate
               { (Workload.Bibtex_gen.with_size n) with seed })
        in
        let files =
          [ ("a.bib", file 1 15); ("b.bib", file 2 10); ("c.bib", file 3 5) ]
        in
        let corpus =
          match Oqf.Corpus.make_full Bibtex_schema.view files with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check (list string))
          "files" [ "a.bib"; "b.bib"; "c.bib" ]
          (Oqf.Corpus.files corpus);
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        match Oqf.Corpus.run corpus q with
        | Error e -> Alcotest.fail e
        | Ok out ->
            (* per-file answers must match per-file baselines *)
            let expected =
              List.concat_map
                (fun (name, text) ->
                  match Oqf.Execute.run_baseline Bibtex_schema.view text q with
                  | Ok (rows, _) -> List.map (fun row -> (name, row)) rows
                  | Error e -> Alcotest.fail e)
                files
            in
            Alcotest.(check int)
              "row count" (List.length expected) (List.length out.Oqf.Corpus.rows);
            Alcotest.(check bool) "tagged rows agree" true
              (List.for_all2
                 (fun (f1, r1) (f2, r2) ->
                   f1 = f2 && List.equal Odb.Value.equal r1 r2)
                 expected out.Oqf.Corpus.rows));
    Alcotest.test_case "corpus reports the failing file" `Quick (fun () ->
        match
          Oqf.Corpus.make_full Bibtex_schema.view
            [
              ("good.bib", Pat.Text.of_string Bibtex_schema.sample);
              ("bad.bib", Pat.Text.of_string "not a bibliography");
            ]
        with
        | Error e ->
            Alcotest.(check bool) "names the file" true
              (String.length e > 8 && String.sub e 0 8 = "bad.bib:")
        | Ok _ -> Alcotest.fail "should fail");
  ]

let advisor_tests =
  [
    Alcotest.test_case "advisor covers the paper's query" `Quick (fun () ->
        match
          Oqf.Advisor.required_indices Bibtex_schema.view
            (Odb.Query_parser.parse_exn
               {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|})
        with
        | Ok names ->
            (* must contain the expression names *)
            List.iter
              (fun n ->
                Alcotest.(check bool) (n ^ " present") true (List.mem n names))
              [ "Reference"; "Authors"; "Last_Name" ]
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "advised set yields an exact plan" `Quick (fun () ->
        let text = bibtex_text 15 in
        let queries =
          [
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
            {|SELECT r FROM References r WHERE r.Year = "1982"|};
            {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|};
          ]
        in
        List.iter
          (fun q_text ->
            let q = Odb.Query_parser.parse_exn q_text in
            match Oqf.Advisor.required_indices Bibtex_schema.view q with
            | Error e -> Alcotest.fail e
            | Ok names -> begin
                let src =
                  match
                    Oqf.Execute.make_source Bibtex_schema.view text ~index:names
                  with
                  | Ok s -> s
                  | Error e -> Alcotest.fail e
                in
                match Oqf.Execute.run src q with
                | Ok r ->
                    Alcotest.(check bool)
                      ("exact with advised set: " ^ q_text)
                      true r.Oqf.Execute.plan.Oqf.Plan.exact
                | Error e -> Alcotest.fail e
              end)
          queries);
    Alcotest.test_case "explain mentions the optimized expression" `Quick
      (fun () ->
        match
          Oqf.Advisor.explain Bibtex_schema.view
            ~index:(Grammar.indexable Bibtex_schema.grammar)
            (Odb.Query_parser.parse_exn
               {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|})
        with
        | Ok text ->
            Alcotest.(check bool) "has optimized line" true
              (let needle = "optimized" in
               let rec find i =
                 i + String.length needle <= String.length text
                 && (String.sub text i (String.length needle) = needle
                    || find (i + 1))
               in
               find 0)
        | Error e -> Alcotest.fail e);
  ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE at the query level: the per-node annotations of an
   explained run must account for exactly the index work the outcome's
   stats charge to the query. *)

let explain_tests =
  [
    Alcotest.test_case "annotated sums equal the query's stats totals" `Quick
      (fun () ->
        let text = bibtex_text 40 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        List.iter
          (fun q_text ->
            let q = Odb.Query_parser.parse_exn q_text in
            match Oqf.Execute.run ~explain:true src q with
            | Error e -> Alcotest.fail e
            | Ok r ->
                let sum f =
                  List.fold_left
                    (fun acc (_, a) -> acc + f a)
                    0 r.Oqf.Execute.annotations
                in
                Alcotest.(check bool)
                  ("has annotations: " ^ q_text) true
                  (r.Oqf.Execute.annotations <> []);
                Alcotest.(check int)
                  ("index_ops accounted: " ^ q_text)
                  r.Oqf.Execute.stats.Stdx.Stats.index_ops
                  (sum Ralg.Annot.total_ops);
                Alcotest.(check int)
                  ("region_comparisons accounted: " ^ q_text)
                  r.Oqf.Execute.stats.Stdx.Stats.region_comparisons
                  (sum Ralg.Annot.total_cmps))
          [
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
            {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|};
            {|SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
          ]);
    Alcotest.test_case "explain does not change the rows" `Quick (fun () ->
        let text = bibtex_text 30 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        match (Oqf.Execute.run src q, Oqf.Execute.run ~explain:true src q) with
        | Ok plainr, Ok explained ->
            Alcotest.check rows_t "same rows" plainr.Oqf.Execute.rows
              explained.Oqf.Execute.rows
        | Error e, _ | _, Error e -> Alcotest.fail e);
    Alcotest.test_case "optimizer rewrites are reported" `Quick (fun () ->
        let text = bibtex_text 10 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        match
          (Oqf.Execute.run src q, Oqf.Execute.run ~optimize:false src q)
        with
        | Ok optimized, Ok naive ->
            Alcotest.(check bool)
              "optimized run logs rewrites" true
              (optimized.Oqf.Execute.rewrites <> []);
            List.iter
              (fun (rw : Ralg.Optimizer.rewrite) ->
                Alcotest.(check bool)
                  "known rule" true
                  (List.mem rw.Ralg.Optimizer.rule
                     [ "weaken-direct"; "shorten" ]))
              optimized.Oqf.Execute.rewrites;
            Alcotest.(check (list (pair string string)))
              "naive run logs none" []
              (List.map
                 (fun (rw : Ralg.Optimizer.rewrite) ->
                   (rw.Ralg.Optimizer.rule, rw.Ralg.Optimizer.detail))
                 naive.Oqf.Execute.rewrites)
        | Error e, _ | _, Error e -> Alcotest.fail e);
    Alcotest.test_case "explain renderer mentions every section" `Quick
      (fun () ->
        let text = bibtex_text 10 in
        let src =
          match Oqf.Execute.make_source_full Bibtex_schema.view text with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        match Oqf.Execute.run ~explain:true src q with
        | Error e -> Alcotest.fail e
        | Ok r ->
            let out =
              Format.asprintf "%a" (Oqf.Explain.pp ~source:src ~show_times:false) r
            in
            let has needle =
              let nh = String.length out and nn = String.length needle in
              let rec go i =
                if i + nn > nh then false
                else String.sub out i nn = needle || go (i + 1)
              in
              go 0
            in
            List.iter
              (fun needle ->
                if not (has needle) then
                  Alcotest.failf "explain output misses %S:\n%s" needle out)
              [
                "rewrites:"; "analyze:"; "analyzed totals:"; "est weighted=";
                "stats:"; "self: ops=";
              ]);
  ]

(* ------------------------------------------------------------------ *)
(* Bounded-exhaustive paths: every rooted path of up to [k] steps, built
   from every name of the schema, [text], [*X], [X1], every [a+] and one
   unknown name, is crossed with SELECT projection and the three
   predicate forms, over a fixed sample of index sets that hold the
   class root, under both planners.  Every indexed answer must equal
   the standard implementation's.  The words come from the standard
   answers (plus one absent word), and a stated share of the cases
   must answer rows, so the comparison cannot pass on empty answers. *)

module Path_exhaustive = struct
  let corpora =
    [
      ( Bibtex_schema.view,
        "References",
        Workload.Bibtex_gen.generate
          { (Workload.Bibtex_gen.with_size 4) with seed = 5 },
        2 );
      ( Log_schema.view,
        "Entries",
        Workload.Log_gen.generate { (Workload.Log_gen.with_size 6) with seed = 3 },
        2 );
      ( Sgml_schema.view,
        "Sections",
        Workload.Sgml_gen.generate
          { (Workload.Sgml_gen.with_depth 2) with seed = 3 },
        2 );
      ( Mbox_schema.view,
        "Messages",
        Workload.Mbox_gen.generate { (Workload.Mbox_gen.with_size 4) with seed = 3 },
        2 );
    ]

  let absent = "qqabsentqq"

  let steps view =
    let names = Grammar.nonterminals view.View.grammar in
    List.map (fun n -> Odb.Path.Attr n) names
    @ List.map (fun n -> Odb.Path.Plus n) names
    @ [ Odb.Path.Attr "text"; Odb.Path.Star; Odb.Path.Any; Odb.Path.Attr "Bogus" ]

  let projection cls path =
    {
      Odb.Query.select = [ { Odb.Query.var = "v"; path } ];
      from_ = [ (cls, "v") ];
      where = Odb.Query.True;
    }

  (* every path of 1..k steps, then one step more on each k-step path
     that reaches values in [db] *)
  let paths db cls steps k =
    let reaches path = Odb.Query_eval.eval db (projection cls path) <> [] in
    let extend ps = List.concat_map (fun p -> List.map (fun s -> p @ [ s ]) steps) ps in
    let rec go level j =
      if j = k then level @ extend (List.filter reaches level)
      else level @ go (extend level) (j + 1)
    in
    go (List.map (fun s -> [ s ]) steps) 1

  let rec strings acc = function
    | Odb.Value.Str s -> s :: acc
    | Odb.Value.Tuple fields -> List.fold_left (fun a (_, v) -> strings a v) acc fields
    | Odb.Value.Set elts -> List.fold_left strings acc elts
    | Odb.Value.Variant (_, v) -> strings acc v

  let first_word s =
    let is_word c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    in
    let n = String.length s in
    let rec start i = if i < n && not (is_word s.[i]) then start (i + 1) else i in
    let i = start 0 in
    let rec stop j = if j < n && is_word s.[j] then stop (j + 1) else j in
    if i >= n then None else Some (String.sub s i (stop i - i))

  (* the strings a path's standard answers hold, or else its longest
     prefix's *)
  let rec found db cls path =
    match
      List.rev
        (List.fold_left strings [] (List.concat (Odb.Query_eval.eval db (projection cls path))))
    with
    | [] when path <> [] -> found db cls (List.filteri (fun i _ -> i < List.length path - 1) path)
    | strings -> strings

  (* the queries for one path: its projection, then predicates on a
     string its (or its prefix's) standard answers hold, and on one
     absent word *)
  let queries db cls path =
    let rp = { Odb.Query.var = "v"; path } in
    let from_ = [ (cls, "v") ] in
    let filter where = { Odb.Query.select = [ Odb.Query.var "v" ]; from_; where } in
    let preds =
      match found db cls path with
      | [] -> []
      | s :: _ ->
          [
            Odb.Query.Eq_const (rp, s);
            Odb.Query.Starts_with (rp, String.sub s 0 (min 3 (String.length s)));
          ]
          @ (match first_word s with
            | Some w -> [ Odb.Query.Contains (rp, w) ]
            | None -> [])
    in
    projection cls path :: List.map filter (Odb.Query.Contains (rp, absent) :: preds)

  let index_sets view cls =
    let root = Option.get (View.class_nonterm view cls) in
    let all = Grammar.indexable view.View.grammar in
    let prng = Stdx.Prng.create 29 in
    let others = List.filter (( <> ) root) all in
    [ all; [ root ]; root :: Stdx.Prng.sample prng (List.length others / 2) others ]

  let run () =
    let cases = ref 0 and answered = ref 0 in
    List.iter
      (fun (view, cls, text, k) ->
        let text = Pat.Text.of_string text in
        let db =
          match View.load_file view text with
          | Ok db -> db
          | Error e -> Alcotest.fail e
        in
        let sources =
          List.map (fun index -> source view text ~index) (index_sets view cls)
        in
        List.iter
          (fun path ->
            List.iter
              (fun q ->
                let expected = Odb.Query_eval.eval db q in
                incr cases;
                if expected <> [] then incr answered;
                List.iter
                  (fun src ->
                    List.iter
                      (fun plan_mode ->
                        (* a refusal must be right: the standard answer
                           is empty, and forced, the plan finds it *)
                        let rec rows force =
                          match Oqf.Execute.run ~force ~plan_mode src q with
                          | Ok r -> r.Oqf.Execute.rows
                          | Error _ when (not force) && expected = [] -> rows true
                          | Error e ->
                              Alcotest.failf "%s: %s" (Odb.Query.to_string q) e
                        in
                        let rows = rows false in
                        if rows <> expected then
                          Alcotest.failf "%s under {%s} (%s): %d rows, standard %d"
                            (Odb.Query.to_string q)
                            (String.concat "," src.Oqf.Execute.env.Oqf.Compile.index_names)
                            (if plan_mode = Oqf_cost.Planner.Rules then "rules" else "cost")
                            (List.length rows) (List.length expected))
                      [ Oqf_cost.Planner.Rules; Oqf_cost.Planner.Cost_based ])
                  sources)
              (queries db cls path))
          (paths db cls (steps view) k))
      corpora;
    (* at least one case in twenty answers rows (about 2,400 of 37,000
       do: most paths name no field of the value they step from) *)
    if !answered * 20 < !cases then
      Alcotest.failf "only %d of %d cases answered rows" !answered !cases
end

let path_tests =
  [
    Alcotest.test_case "bounded-exhaustive paths match the standard answers"
      `Quick Path_exhaustive.run;
  ]

let suites =
  [
    ("oqf.equivalence", equivalence_tests);
    ("oqf.paths", path_tests);
    ("oqf.plans", plan_tests);
    ("oqf.projection", projection_tests);
    ("oqf.fuzz", fuzz_tests);
    ("oqf.join", join_tests);
    ("oqf.corpus", corpus_tests);
    ("oqf.advisor", advisor_tests);
    ("oqf.explain", explain_tests);
  ]
