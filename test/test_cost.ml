(* Tests for the cost subsystem: statistics collection (live instances
   and the catalog manifest's rstat/rdepth lines), the estimator's
   safety properties (finite, non-negative, sound upper bounds), the
   equivalence of cost-based and rule-based plan selection, and the
   workload-driven index advisor. *)

module Stats = Oqf_cost.Stats
module Model = Oqf_cost.Model
module Planner = Oqf_cost.Planner
module Advise = Oqf_cost.Advise
module Expr = Ralg.Expr

let or_fail = function Ok x -> x | Error e -> Alcotest.fail e

let temp_dir () =
  let path = Filename.temp_file "oqf_cost_test" "" in
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

(* word k sits at chars [2k, 2k+1]: "a b c d e f" *)
let demo_instance () =
  Pat.Instance.create
    (Pat.Text.of_string "a b c d e f")
    [
      ("Outer", Pat.Region_set.of_pairs [ (0, 11) ]);
      ("Inner", Pat.Region_set.of_pairs [ (2, 3); (6, 9) ]);
    ]

let mk_entry ?(stats = []) ?(depths = []) ~source ~length () =
  {
    Oqf_catalog.Catalog.source;
    schema = "log";
    index_names = [];
    length;
    digest = "";
    version = 1;
    index_file = "";
    stats;
    depths;
  }

(* ------------------------------------------------------------------ *)
(* Statistics *)

let stats_tests =
  [
    Alcotest.test_case "of_instance: cardinalities and nesting depths" `Quick
      (fun () ->
        let stats = Stats.of_instance (demo_instance ()) in
        Alcotest.(check (float 0.0)) "card Outer" 1.0 (Stats.card stats "Outer");
        Alcotest.(check (float 0.0)) "card Inner" 2.0 (Stats.card stats "Inner");
        Alcotest.(check (float 0.0))
          "unknown name falls back to the default"
          (float_of_int Stats.default_card)
          (Stats.card stats "Nope");
        Alcotest.(check (float 0.0)) "universe" 3.0 (Stats.universe stats);
        (match Stats.find stats "Inner" with
        | Some ns ->
            Alcotest.(check (list int))
              "Inner nests one level down" [ 0; 2 ]
              (Array.to_list ns.Stats.depth_hist)
        | None -> Alcotest.fail "Inner has no stats");
        Alcotest.(check (float 1e-9))
          "Outer over Inner overlaps fully" 1.0
          (Stats.depth_overlap stats ~outer:"Outer" ~inner:"Inner");
        Alcotest.(check (float 1e-9))
          "Inner over Outer clamps to the floor" 0.05
          (Stats.depth_overlap stats ~outer:"Inner" ~inner:"Outer"));
    Alcotest.test_case "uniform: every knob degrades gracefully" `Quick
      (fun () ->
        let stats = Stats.uniform () in
        Alcotest.(check (float 0.0))
          "default card"
          (float_of_int Stats.default_card)
          (Stats.card stats "Anything");
        Alcotest.(check bool) "universe positive" true (Stats.universe stats >= 1.0);
        Alcotest.(check (float 0.0))
          "unknown selectivity is the PR 4 heuristic" 0.1
          (Stats.word_selectivity stats "Anything");
        Alcotest.(check (float 0.0))
          "unknown overlap is conservative" 1.0
          (Stats.depth_overlap stats ~outer:"A" ~inner:"B"));
    Alcotest.test_case "of_entries: merges across files, tolerates legacy"
      `Quick (fun () ->
        let a =
          mk_entry ~source:"a.log" ~length:100
            ~stats:[ ("A", 4, 8) ]
            ~depths:[ ("A", [| 1; 3 |]) ]
            ()
        in
        let b =
          mk_entry ~source:"b.log" ~length:50
            ~stats:[ ("A", 2, 2) ]
            ~depths:[ ("A", [| 2 |]) ]
            ()
        in
        let legacy = mk_entry ~source:"old.log" ~length:70 () in
        let stats = Stats.of_entries [ a; b; legacy ] in
        Alcotest.(check (list string)) "names" [ "A" ] (Stats.names stats);
        Alcotest.(check (float 0.0)) "cards sum" 6.0 (Stats.card stats "A");
        Alcotest.(check (float 0.0))
          "bytes sum every file" 220.0 (Stats.text_bytes stats);
        match Stats.find stats "A" with
        | Some ns ->
            Alcotest.(check (list int))
              "histograms add bucket-wise" [ 3; 3 ]
              (Array.to_list ns.Stats.depth_hist)
        | None -> Alcotest.fail "A has no stats");
    Alcotest.test_case "word_selectivity stays within [1/regions, 1]" `Quick
      (fun () ->
        let dense =
          Stats.of_entries
            [ mk_entry ~source:"d" ~length:10 ~stats:[ ("A", 2, 10000) ] () ]
        in
        Alcotest.(check bool)
          "dense clamps to 1" true
          (Stats.word_selectivity dense "A" <= 1.0);
        let sparse =
          Stats.of_entries
            [ mk_entry ~source:"s" ~length:10 ~stats:[ ("A", 100, 1) ] () ]
        in
        let s = Stats.word_selectivity sparse "A" in
        Alcotest.(check bool) "sparse floors at 1/regions" true (s >= 0.01));
  ]

(* ------------------------------------------------------------------ *)
(* Estimator safety: finite, non-negative, and the upper bound really
   bounds on random RIG-conforming instances where leaf cardinalities
   are exact. *)

let cost_of stats e = (Model.estimate stats e).Model.cost
let uniform_cost = cost_of (Stats.uniform ())

let estimator_tests =
  [
    Alcotest.test_case "direct ops cost more than simple ones" `Quick
      (fun () ->
        let direct = Expr.(name "A" >.. name "B") in
        let simple = Expr.(name "A" >. name "B") in
        Alcotest.(check bool) "ordering" true
          (uniform_cost simple < uniform_cost direct));
    Alcotest.test_case "longer chains cost more" `Quick (fun () ->
        let long_e = Expr.(name "A" >. (name "B" >. name "C")) in
        let short_e = Expr.(name "A" >. name "C") in
        Alcotest.(check bool) "ordering" true
          (uniform_cost short_e < uniform_cost long_e));
    Alcotest.test_case "of_instance uses real cardinalities" `Quick (fun () ->
        let inst =
          Pat.Instance.create
            (Pat.Text.of_string "a b c d e f")
            [
              ("Big", Pat.Region_set.of_pairs [ (0, 1); (2, 3); (4, 5); (6, 7) ]);
              ("Small", Pat.Region_set.of_pairs [ (0, 11) ]);
            ]
        in
        let cost = cost_of (Stats.of_instance inst) in
        Alcotest.(check bool) "bigger operands cost more" true
          (cost Expr.(name "Small" >. name "Small")
          < cost Expr.(name "Big" >. name "Big")));
    Alcotest.test_case "paper e1 costs more than e2" `Quick (fun () ->
        let e1 =
          Ralg.Expr_parser.parse_exn
            "Reference >d Authors >d Name >d sigma[\"Chang\"](Last_Name)"
        in
        let e2 =
          Ralg.Expr_parser.parse_exn
            "Reference > Authors > sigma[\"Chang\"](Last_Name)"
        in
        Alcotest.(check bool) "optimized is cheaper" true
          (uniform_cost e2 < uniform_cost e1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"estimates are finite and non-negative on random expressions"
         QCheck.(make Gen.(int_bound 100000))
         (fun seed ->
           let rig, inst, prng = Test_ralg.Gen_instance.generate seed in
           let names = Array.of_list (Ralg.Rig.names rig) in
           let e = Test_ralg.random_general prng names 4 in
           let safe stats =
             let est = Model.estimate stats e in
             let ok x = Float.is_finite x && x >= 0.0 in
             ok est.Model.rows && ok est.Model.upper && ok est.Model.cost
           in
           safe (Stats.of_instance inst) && safe (Stats.uniform ())));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"upper bound holds against actual evaluation"
         QCheck.(make Gen.(int_bound 100000))
         (fun seed ->
           let rig, inst, prng = Test_ralg.Gen_instance.generate seed in
           let names = Array.of_list (Ralg.Rig.names rig) in
           let e = Test_ralg.random_general prng names 3 in
           let stats = Stats.of_instance inst in
           let actual =
             float_of_int (Pat.Region_set.cardinal (Ralg.Eval.eval_plain inst e))
           in
           let est = Model.estimate stats e in
           if actual > est.Model.upper +. 1e-9 then
             QCheck.Test.fail_reportf "seed %d: actual %g > upper %g on %s"
               seed actual est.Model.upper (Expr.to_string e);
           true));
  ]

(* ------------------------------------------------------------------ *)
(* Plan selection: every candidate the cost mode may pick denotes the
   same region set as the rules rewrite and the naive evaluation. *)

let planner_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"cost-chosen plan == rules plan == naive evaluation"
         QCheck.(make Gen.(int_bound 100000))
         (fun seed ->
           let rig, inst, prng = Test_ralg.Gen_instance.generate seed in
           let names = Array.of_list (Ralg.Rig.names rig) in
           let e = Test_ralg.random_general prng names 3 in
           let stats = Stats.of_instance inst in
           let naive = Ralg.Eval.eval_plain inst e in
           let rules = Ralg.Eval.eval_plain inst (Ralg.Optimizer.optimize rig e) in
           let d = Planner.choose ~stats (Planner.candidates ~rig e) in
           let cost = Ralg.Eval.eval_plain inst d.Planner.chosen in
           if not (Pat.Region_set.equal naive rules) then
             QCheck.Test.fail_reportf "seed %d: rules differs on %s" seed
               (Expr.to_string e);
           if not (Pat.Region_set.equal naive cost) then
             QCheck.Test.fail_reportf
               "seed %d: cost-chosen %s (tag %s) differs on %s" seed
               (Expr.to_string d.Planner.chosen)
               d.Planner.tag (Expr.to_string e);
           d.Planner.considered >= 1));
    Alcotest.test_case "ties and uninformative stats degenerate to rules"
      `Quick (fun () ->
        let rig =
          Ralg.Rig.create ~names:[ "A"; "B" ] ~edges:[ ("A", "B") ]
        in
        let e = Expr.(name "A" >.. name "B") in
        let d =
          Planner.choose ~stats:(Stats.uniform ()) (Planner.candidates ~rig e)
        in
        Alcotest.(check string) "rules wins ties" "rules" d.Planner.tag;
        Alcotest.(check bool)
          "chosen is the rules rewrite" true
          (Expr.equal d.Planner.chosen (Ralg.Optimizer.optimize rig e)));
    Alcotest.test_case "mode_of_string round-trips and rejects junk" `Quick
      (fun () ->
        Alcotest.(check bool)
          "rules" true
          (Planner.mode_of_string "rules" = Ok Planner.Rules);
        Alcotest.(check bool)
          "cost" true
          (Planner.mode_of_string "cost" = Ok Planner.Cost_based);
        Alcotest.(check bool)
          "junk rejected" true
          (Result.is_error (Planner.mode_of_string "greedy")));
  ]

(* ------------------------------------------------------------------ *)
(* Advisor *)

let advisor_items =
  [
    {
      Advise.query = "q1";
      schema = "s";
      workload = "w";
      count = 3;
      total_ms = 90.0;
    };
  ]

let advisor_tests =
  [
    Alcotest.test_case "recommends the index that removes a scan" `Quick
      (fun () ->
        (* without B the query parses the whole file; with B it is an
           exact single-name plan *)
        let compile ~index ~schema:_ _q =
          if List.mem "B" index then Ok [ `Index (Expr.name "B", true) ]
          else Ok [ `Scan ]
        in
        let recs =
          Advise.advise ~stats:(Stats.uniform ()) ~compile ~index:[ "A" ]
            ~indexable:[ "A"; "B" ] advisor_items
        in
        let adds =
          List.filter (fun r -> r.Advise.action = `Add) recs
        in
        (match adds with
        | [ r ] ->
            Alcotest.(check string) "adds B" "B" r.Advise.name;
            Alcotest.(check bool)
              "positive predicted saving" true (r.Advise.predicted_ms > 0.0);
            Alcotest.(check bool)
              "saving bounded by observed latency" true
              (r.Advise.predicted_ms <= 90.0);
            Alcotest.(check int) "one query affected" 1 r.Advise.queries
        | _ -> Alcotest.failf "expected exactly one addition");
        match List.filter (fun r -> r.Advise.action = `Drop) recs with
        | [ r ] -> Alcotest.(check string) "drops unused A" "A" r.Advise.name
        | _ -> Alcotest.fail "expected exactly one drop");
    Alcotest.test_case "covered plans beat uncovered ones" `Quick (fun () ->
        (* with only the root indexed the candidates are an uncovered
           superset; indexing the selected name makes the plan exact *)
        let compile ~index ~schema:_ _q =
          if List.mem "B" index then
            Ok [ `Index (Expr.(name "A" >. exactly "w" (name "B")), true) ]
          else Ok [ `Index (Expr.(exactly "w" (name "A")), false) ]
        in
        let recs =
          Advise.advise ~stats:(Stats.uniform ()) ~compile ~index:[ "A" ]
            ~indexable:[ "A"; "B" ] advisor_items
        in
        Alcotest.(check bool)
          "recommends indexing B" true
          (List.exists
             (fun r -> r.Advise.action = `Add && r.Advise.name = "B")
             recs));
    Alcotest.test_case "a served workload needs no changes" `Quick (fun () ->
        let compile ~index:_ ~schema:_ _q =
          Ok [ `Index (Expr.name "A", true) ]
        in
        let recs =
          Advise.advise ~stats:(Stats.uniform ()) ~compile ~index:[ "A" ]
            ~indexable:[ "A"; "B" ] advisor_items
        in
        Alcotest.(check int) "no recommendations" 0 (List.length recs));
    Alcotest.test_case "unparseable queries are skipped, not fatal" `Quick
      (fun () ->
        let compile ~index:_ ~schema:_ _q = Error "no parse" in
        let recs =
          Advise.advise ~stats:(Stats.uniform ()) ~compile ~index:[ "A" ]
            ~indexable:[ "A"; "B" ] advisor_items
        in
        (* nothing replayable: no additions; A cannot be shown used,
           so it is offered as a drop *)
        Alcotest.(check bool)
          "no additions" true
          (List.for_all (fun r -> r.Advise.action = `Drop) recs));
  ]

(* ------------------------------------------------------------------ *)
(* Catalog persistence of the new statistics *)

(* One source per built-in schema.  [gen ~step ~reseed] grows with
   [step] (the same seed at a larger size appends, for log) and
   rewrites its prefix when [reseed] changes the seed. *)
let stat_sources =
  [
    ( "log", "app.log",
      fun ~step ~reseed ->
        let p = Workload.Log_gen.with_size (30 + (10 * step)) in
        Workload.Log_gen.generate { p with seed = p.seed + reseed } );
    ( "bibtex", "refs.bib",
      fun ~step ~reseed ->
        let p = Workload.Bibtex_gen.with_size (12 + (4 * step)) in
        Workload.Bibtex_gen.generate { p with seed = p.seed + reseed } );
    ( "sgml", "doc.sgml",
      fun ~step ~reseed ->
        let p = Workload.Sgml_gen.with_depth 4 in
        Workload.Sgml_gen.generate
          { p with seed = p.seed + reseed; top_sections = p.top_sections + step } );
    ( "mbox", "mail.mbox",
      fun ~step ~reseed ->
        let p = Workload.Mbox_gen.with_size (10 + (3 * step)) in
        Workload.Mbox_gen.generate { p with seed = p.seed + reseed } );
  ]

(* Every entry's manifest statistics equal what a sweep of its freshly
   loaded instance finds (match points aside: the sweep leaves them
   unknown), and a catalog-built source plans with the manifest's
   figures, match points included. *)
let manifest_matches_live ~stage catdir =
  let cat = or_fail (Oqf_catalog.Catalog.open_dir catdir) in
  List.iter
    (fun (e : Oqf_catalog.Catalog.entry) ->
      let what s = Printf.sprintf "%s, %s: %s" stage e.schema s in
      let live =
        Stats.of_instance (or_fail (Oqf_catalog.Catalog.load cat e.source))
      in
      let persisted = Stats.of_entries [ e ] in
      Alcotest.(check (list string))
        (what "names") (Stats.names live) (Stats.names persisted);
      Alcotest.(check (list string))
        (what "depth names") (Stats.names live) (List.map fst e.depths);
      List.iter
        (fun name ->
          match (Stats.find live name, Stats.find persisted name) with
          | Some l, Some p ->
              Alcotest.(check int) (what name ^ " regions") l.regions p.regions;
              Alcotest.(check (array int))
                (what name ^ " depths") l.depth_hist p.depth_hist
          | _ -> Alcotest.failf "%s: no statistics for %s" e.schema name)
        (Stats.names live);
      Alcotest.(check (float 0.0))
        (what "text_bytes") (Stats.text_bytes live) (Stats.text_bytes persisted);
      let corpus = or_fail (Oqf.Corpus.of_catalog cat ~schema:e.schema) in
      match Oqf.Corpus.source corpus e.source with
      | None -> Alcotest.failf "%s: not in the corpus" e.source
      | Some src ->
          let carried = Oqf.Execute.stats src in
          List.iter
            (fun (name, regions, mps) ->
              match Stats.find carried name with
              | Some s ->
                  Alcotest.(check (pair int int))
                    (what name ^ " carried rstat") (regions, mps)
                    (s.regions, s.match_points)
              | None -> Alcotest.failf "%s: source lacks %s" e.schema name)
            e.stats;
          Alcotest.(check bool)
            (what "carried match points") true
            (List.exists
               (fun name ->
                 match Stats.find carried name with
                 | Some s -> s.match_points > 0
                 | None -> false)
               (Stats.names carried)))
    (Oqf_catalog.Catalog.entries cat)

let catalog_tests =
  [
    Alcotest.test_case "depth histograms persist through the manifest" `Quick
      (fun () ->
        let dir = temp_dir () in
        let src = Filename.concat dir "app.log" in
        write_file src (Workload.Log_gen.generate (Workload.Log_gen.with_size 8));
        let catdir = Filename.concat dir "cat" in
        let cat = or_fail (Oqf_catalog.Catalog.init catdir) in
        let _ = or_fail (Oqf_catalog.Catalog.add cat ~schema:"log" src) in
        (* a fresh open reads back from disk *)
        let cat2 = or_fail (Oqf_catalog.Catalog.open_dir catdir) in
        match Oqf_catalog.Catalog.entries cat2 with
        | [ e ] ->
            Alcotest.(check bool) "has stats" true (e.stats <> []);
            Alcotest.(check bool) "has depths" true (e.depths <> []);
            (match List.assoc_opt "Entry" e.depths with
            | Some h ->
                Alcotest.(check bool)
                  "the root name nests at depth 0 only" true
                  (Array.length h = 1 && h.(0) > 0)
            | None -> Alcotest.fail "no Entry histogram");
            let stats = Stats.of_entries [ e ] in
            Alcotest.(check bool)
              "children read as one level below the root" true
              (Stats.depth_overlap stats ~outer:"Entry" ~inner:"Level" > 0.9)
        | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
    Alcotest.test_case "live and persisted depth histograms agree" `Quick
      (fun () ->
        let dir = temp_dir () in
        let catdir = Filename.concat dir "cat" in
        let cat = or_fail (Oqf_catalog.Catalog.init catdir) in
        let write ~step ~reseed =
          List.iter
            (fun (_, name, gen) ->
              write_file (Filename.concat dir name) (gen ~step ~reseed))
            stat_sources
        in
        write ~step:0 ~reseed:0;
        List.iter
          (fun (schema, name, _) ->
            ignore
              (or_fail
                 (Oqf_catalog.Catalog.add cat ~schema (Filename.concat dir name))))
          stat_sources;
        manifest_matches_live ~stage:"add" catdir;
        let refresh () =
          List.map
            (fun (source, r) -> (Filename.basename source, or_fail r))
            (Oqf_catalog.Catalog.refresh_all cat)
        in
        (* the same seeds at a larger size append entries *)
        write ~step:1 ~reseed:0;
        (match List.assoc_opt "app.log" (refresh ()) with
        | Some (Oqf_catalog.Catalog.Extended _) -> ()
        | _ -> Alcotest.fail "app.log: expected an incremental extension");
        manifest_matches_live ~stage:"append" catdir;
        (* new seeds rewrite every prefix *)
        write ~step:1 ~reseed:1;
        List.iter
          (fun (source, outcome) ->
            match outcome with
            | Oqf_catalog.Catalog.Rebuilt _ -> ()
            | _ -> Alcotest.failf "%s: expected a rebuild" source)
          (refresh ());
        manifest_matches_live ~stage:"rebuild" catdir);
    Alcotest.test_case "stats-free legacy manifest still serves" `Quick
      (fun () ->
        let dir = temp_dir () in
        let src = Filename.concat dir "app.log" in
        write_file src (Workload.Log_gen.generate (Workload.Log_gen.with_size 5));
        let catdir = Filename.concat dir "cat" in
        let cat = or_fail (Oqf_catalog.Catalog.init catdir) in
        let _ = or_fail (Oqf_catalog.Catalog.add cat ~schema:"log" src) in
        (* simulate a manifest written before rstat/rdepth existed *)
        let manifest = Filename.concat catdir "CATALOG" in
        let keep line =
          let starts p =
            String.length line >= String.length p
            && String.sub line 0 (String.length p) = p
          in
          not (starts "rstat " || starts "rdepth ")
        in
        let stripped =
          read_file manifest |> String.split_on_char '\n' |> List.filter keep
          |> String.concat "\n"
        in
        write_file manifest stripped;
        let cat2 = or_fail (Oqf_catalog.Catalog.open_dir catdir) in
        (match Oqf_catalog.Catalog.entries cat2 with
        | [ e ] ->
            Alcotest.(check bool) "no stats" true (e.stats = []);
            Alcotest.(check bool) "no depths" true (e.depths = []);
            let stats = Stats.of_entries [ e ] in
            Alcotest.(check (float 0.0))
              "cards fall back to the default"
              (float_of_int Stats.default_card)
              (Stats.card stats "Entry")
        | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
        (* and the corpus still answers queries from the legacy entry *)
        let corpus =
          or_fail (Oqf.Corpus.of_catalog cat2 ~schema:"log")
        in
        (* planning on it sweeps the instance: live histograms, not the
           uniform default *)
        (match Oqf.Corpus.sources corpus with
        | [ (source, src) ] ->
            let live =
              Stats.of_instance
                (or_fail (Oqf_catalog.Catalog.load cat2 source))
            in
            let planned = Oqf.Execute.stats src in
            Alcotest.(check (float 0.0))
              "live card" (Stats.card live "Entry") (Stats.card planned "Entry");
            Alcotest.(check bool)
              "not the default" true
              (Stats.card planned "Entry" <> float_of_int Stats.default_card);
            Alcotest.(check (list string))
              "live names" (Stats.names live) (Stats.names planned);
            Alcotest.(check (option (array int)))
              "live histogram"
              (Option.map (fun (s : Stats.name_stats) -> s.depth_hist)
                 (Stats.find live "Level"))
              (Option.map (fun (s : Stats.name_stats) -> s.depth_hist)
                 (Stats.find planned "Level"))
        | srcs -> Alcotest.failf "expected 1 source, got %d" (List.length srcs));
        let q =
          or_fail
            (Result.map_error
               (Format.asprintf "%a" Odb.Query_parser.pp_error)
               (Odb.Query_parser.parse "SELECT e.Level FROM Entries e"))
        in
        let out =
          or_fail (Oqf.Corpus.run ~plan_mode:Planner.Cost_based corpus q)
        in
        Alcotest.(check bool)
          "rows came back" true
          (out.Oqf.Corpus.rows <> []));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: both planner modes produce identical rows on a real
   query, and the cost mode records its decisions in the outcome. *)

let execute_tests =
  [
    Alcotest.test_case "plan modes agree on rows; cost mode explains itself"
      `Quick (fun () ->
        let view = Fschema.Log_schema.view in
        let text =
          Pat.Text.of_string
            (Workload.Log_gen.generate (Workload.Log_gen.with_size 12))
        in
        let src = or_fail (Oqf.Execute.make_source_full view text) in
        let q =
          or_fail
            (Result.map_error
               (Format.asprintf "%a" Odb.Query_parser.pp_error)
               (Odb.Query_parser.parse
                  "SELECT e.Level FROM Entries e WHERE e.Service = \"db\""))
        in
        let rules = or_fail (Oqf.Execute.run src q) in
        let cost =
          or_fail (Oqf.Execute.run ~plan_mode:Planner.Cost_based src q)
        in
        Alcotest.(check bool)
          "same rows" true
          (rules.Oqf.Execute.rows = cost.Oqf.Execute.rows);
        Alcotest.(check bool)
          "cost mode recorded decisions" true
          (cost.Oqf.Execute.decisions <> []);
        Alcotest.(check bool)
          "rules mode recorded none" true
          (rules.Oqf.Execute.decisions = []);
        Alcotest.(check bool)
          "estimated cost accumulated" true
          (cost.Oqf.Execute.est_cost > 0.0));
    Alcotest.test_case "domains sharing a source plan as one run does"
      `Quick (fun () ->
        let dir = temp_dir () in
        let file = Filename.concat dir "app.log" in
        write_file file
          (Workload.Log_gen.generate (Workload.Log_gen.with_size 60));
        let cat =
          or_fail (Oqf_catalog.Catalog.init (Filename.concat dir "cat"))
        in
        let _ = or_fail (Oqf_catalog.Catalog.add cat ~schema:"log" file) in
        let q =
          or_fail
            (Result.map_error
               (Format.asprintf "%a" Odb.Query_parser.pp_error)
               (Odb.Query_parser.parse
                  "SELECT e.Service, e.Message FROM Entries e \
                   WHERE e.Level = \"WARN\""))
        in
        let run src =
          let o = or_fail (Oqf.Execute.run ~plan_mode:Planner.Cost_based src q) in
          (o.Oqf.Execute.rows, o.Oqf.Execute.decisions)
        in
        (* four domains start together on one source *)
        let together src =
          let waiting = Atomic.make 4 in
          List.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  Atomic.decr waiting;
                  while Atomic.get waiting > 0 do
                    Domain.cpu_relax ()
                  done;
                  run src))
          |> List.map Domain.join
        in
        let catalog_source () =
          match
            Oqf.Corpus.sources
              (or_fail (Oqf.Corpus.of_catalog cat ~schema:"log"))
          with
          | [ (_, src) ] -> src
          | _ -> Alcotest.fail "expected one catalog source"
        in
        let instance = or_fail (Oqf_catalog.Catalog.load cat file) in
        (* a fresh single-file source has not swept its instance yet, so
           the four domains race for its statistics *)
        let file_source () =
          Oqf.Execute.source_of_instance Fschema.Log_schema.view instance
        in
        List.iter
          (fun (label, fresh) ->
            let ((rows, decisions) as want) = run (fresh ()) in
            Alcotest.(check bool) (label ^ ": rows") true (rows <> []);
            Alcotest.(check bool) (label ^ ": decisions") true (decisions <> []);
            for _trial = 1 to 5 do
              List.iter
                (fun got ->
                  Alcotest.(check bool) (label ^ ": same as sequential") true
                    (got = want))
                (together (fresh ()))
            done)
          [ ("catalog source", catalog_source); ("single-file source", file_source) ]);
  ]

let suites =
  [
    ("cost.stats", stats_tests);
    ("cost.estimator", estimator_tests);
    ("cost.planner", planner_tests);
    ("cost.advisor", advisor_tests);
    ("cost.catalog", catalog_tests);
    ("cost.execute", execute_tests);
  ]
