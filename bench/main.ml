(* Benchmark harness: regenerates the paper's quantitative claims.

   "Optimizing Queries on Files" (Consens & Milo, SIGMOD 1994) reports
   no numbered result tables; its evaluation is the set of performance
   claims the sections argue.  Each experiment below regenerates one
   claim as a table: the workload, the competing strategies, and the
   measured series.  EXPERIMENTS.md records claim-vs-measured.

   Absolute numbers depend on this substrate (a from-scratch OCaml
   engine); the shapes — who wins, how the gap scales — are the
   reproduction target.

   Run with: dune exec bench/main.exe *)

let say fmt = Format.printf fmt

let heading id claim =
  say "@.========================================================@.";
  say "%s — %s@." id claim;
  say "========================================================@."

(* Wall-clock milliseconds of [f], best of [repeat]. *)
let time_ms ?(repeat = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to repeat do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let or_die = function Ok x -> x | Error e -> failwith e

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Nearest-rank [p]th percentile of an ascending array (0 if empty). *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(* An overhead gate's measurement.  Runs of [off] and [armed] are
   interleaved ([arm] / [disarm] switch the layer under test around
   each armed run), so drift on a shared host lands on both sides
   alike.  Each of [gate_pairs] pairs is [gate_rounds] rounds of one
   off and one armed run, in alternating order; its ratio is the best
   armed run over the best off run, which strips the one-sided spikes
   a single 3–5 ms run shows when a neighbour takes the core.  Returns
   the last result of each side, the median best time of each, and
   the median of the pair ratios — the figure the gate reads.  A
   best-of-7 block of off runs followed by one of armed runs, or a
   median of 21 single-run pairs, read FAIL on noise alone in a fifth
   to a third of runs on a shared 2-core host. *)
let gate_pairs = 101
let gate_rounds = 5

let paired_overhead ~arm ~disarm ~off ~armed () =
  let last_off = ref None and last_armed = ref None in
  let timed last f =
    let t0 = Unix.gettimeofday () in
    last := Some (f ());
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let off_run () = timed last_off off in
  let armed_run () =
    arm ();
    Fun.protect ~finally:disarm (fun () -> timed last_armed armed)
  in
  let samples =
    List.init gate_pairs (fun i ->
        let best_off = ref infinity and best_armed = ref infinity in
        for j = 1 to gate_rounds do
          let o, a =
            if (i + j) mod 2 = 0 then
              let o = off_run () in
              (o, armed_run ())
            else
              let a = armed_run () in
              (off_run (), a)
          in
          best_off := Float.min !best_off o;
          best_armed := Float.min !best_armed a
        done;
        (!best_off, !best_armed))
  in
  ( Option.get !last_off,
    Option.get !last_armed,
    median (List.map fst samples),
    median (List.map snd samples),
    median (List.map (fun (o, a) -> a /. o) samples) )

(* Corpus and source caches so repeated experiments share setup work. *)
let bibtex_cache : (int, Pat.Text.t) Hashtbl.t = Hashtbl.create 8

let bibtex_text n =
  match Hashtbl.find_opt bibtex_cache n with
  | Some t -> t
  | None ->
      let t =
        Pat.Text.of_string
          (Workload.Bibtex_gen.generate (Workload.Bibtex_gen.with_size n))
      in
      Hashtbl.add bibtex_cache n t;
      t

let source_cache : (int * string, Oqf.Execute.source) Hashtbl.t =
  Hashtbl.create 8

let bibtex_source ?index n =
  let view = Fschema.Bibtex_schema.view in
  let index =
    match index with
    | Some i -> i
    | None -> Fschema.Grammar.indexable view.Fschema.View.grammar
  in
  let key = (n, String.concat "," index) in
  match Hashtbl.find_opt source_cache key with
  | Some s -> s
  | None ->
      let s = or_die (Oqf.Execute.make_source view (bibtex_text n) ~index) in
      Hashtbl.add source_cache key s;
      s

let q_chang =
  Odb.Query_parser.parse_exn
    {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}

(* ------------------------------------------------------------------ *)
(* E1 — §3.2 / Theorem 3.6: the optimized inclusion expression beats
   the naive translation. *)

let e1 () =
  heading "E1" "optimized vs naive inclusion expression (§3.2, Thm 3.6)";
  say "query: %s@." (Odb.Query.to_string q_chang);
  say "index-phase evaluation only (the phase the optimizer targets)@.";
  say "%8s | %26s | %26s | %8s@." "refs" "naive (ms, region cmps)"
    "optimized (ms, region cmps)" "speedup";
  let exprs_for src =
    let plan = or_die
        (Result.map_error Oqf.Compile.error_message
           (Oqf.Compile.compile src.Oqf.Execute.env q_chang)) in
    match plan.Oqf.Plan.var_plans with
    | [ { Oqf.Plan.candidates = Oqf.Plan.Expr e; _ } ] ->
        (e, Ralg.Optimizer.optimize src.Oqf.Execute.env.Oqf.Compile.query_rig e)
    | _ -> failwith "unexpected plan shape"
  in
  List.iter
    (fun n ->
      let src = bibtex_source n in
      let naive_e, opt_e = exprs_for src in
      let eval e () =
        let before = Stdx.Stats.(value region_comparisons) in
        let r = Ralg.Eval.eval src.Oqf.Execute.instance e in
        (r, Stdx.Stats.(value region_comparisons) - before)
      in
      let (naive_set, naive_cmps), naive_ms = time_ms ~repeat:5 (eval naive_e) in
      let (opt_set, opt_cmps), opt_ms = time_ms ~repeat:5 (eval opt_e) in
      assert (Pat.Region_set.equal naive_set opt_set);
      say "%8d | %14.3f %11d | %14.3f %11d | %7.2fx@." n naive_ms naive_cmps
        opt_ms opt_cmps (naive_ms /. opt_ms))
    [ 100; 400; 1600; 6400 ];
  let naive_e, opt_e = exprs_for (bibtex_source 100) in
  say "naive expression:     %a@." Ralg.Expr.pp naive_e;
  say "optimized expression: %a@." Ralg.Expr.pp opt_e

(* ------------------------------------------------------------------ *)
(* E2 — §1/§5.1: index evaluation vs the standard database
   implementation (full parse + load + evaluate). *)

let e2 () =
  heading "E2" "indexed evaluation vs standard database implementation (§5.1)";
  let selective =
    Odb.Query_parser.parse_exn
      (Printf.sprintf
         {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "%s"|}
         (Workload.Vocab.last_name 60))
  in
  List.iter
    (fun (label, q) ->
      say "@.%s: %s@." label (Odb.Query.to_string q);
      say "%8s | %8s | %26s | %26s | %8s@." "refs" "file KB"
        "indexed (ms, answers, B)" "database (ms, parsed B)" "speedup";
      List.iter
        (fun n ->
          let text = bibtex_text n in
          let src = bibtex_source n in
          let idx_r, idx_ms =
            time_ms (fun () -> or_die (Oqf.Execute.run src q))
          in
          let (base_rows, base_stats), base_ms =
            time_ms ~repeat:1 (fun () ->
                or_die
                  (Oqf.Execute.run_baseline Fschema.Bibtex_schema.view text q))
          in
          assert (List.length base_rows = idx_r.Oqf.Execute.answers_count);
          say "%8d | %8d | %9.2f %5d %10d | %15.2f %10d | %7.1fx@." n
            (Pat.Text.length text / 1024)
            idx_ms idx_r.Oqf.Execute.answers_count
            idx_r.Oqf.Execute.stats.bytes_parsed base_ms
            base_stats.Stdx.Stats.bytes_parsed (base_ms /. idx_ms))
        [ 50; 200; 800; 3200 ])
    [
      ("selective query (rare author)", selective);
      ("unselective query (most frequent author)", q_chang);
    ]

(* ------------------------------------------------------------------ *)
(* E3 — §6: partial indexing computes a candidate superset, then
   parses only the candidates. *)

let e3 () =
  heading "E3" "partial indexing: candidates vs answers (§6, Fig. 3)";
  let n = 800 in
  say "query: %s  (corpus: %d refs, %d KB)@." (Odb.Query.to_string q_chang) n
    (Pat.Text.length (bibtex_text n) / 1024);
  say "%-44s | %6s | %6s | %7s | %9s | %8s@." "index set" "names" "cands"
    "answers" "parsed B" "time ms";
  List.iter
    (fun (label, index) ->
      let src = bibtex_source ?index n in
      let r, ms = time_ms ~repeat:5 (fun () -> or_die (Oqf.Execute.run src q_chang)) in
      say "%-44s | %6d | %6d | %7d | %9d | %8.2f@." label
        (List.length r.Oqf.Execute.plan.Oqf.Plan.index_names)
        r.Oqf.Execute.candidates_count r.Oqf.Execute.answers_count
        r.Oqf.Execute.stats.bytes_parsed ms)
    [
      ("full indexing", None);
      ( "{Reference, Authors, Name, Last_Name}",
        Some [ "Reference"; "Authors"; "Name"; "Last_Name" ] );
      ( "{Reference, Key, Last_Name}  (paper Fig. 3)",
        Some [ "Reference"; "Key"; "Last_Name" ] );
      ("{Reference}", Some [ "Reference" ]);
    ]

(* ------------------------------------------------------------------ *)
(* E4 — §7: the trade-off between the amount of indexing and the work
   at query time. *)

let e4 () =
  heading "E4" "efficiency vs amount of indexing (§7)";
  let n = 800 in
  let view = Fschema.Bibtex_schema.view in
  let advised = or_die (Oqf.Advisor.required_indices view q_chang) in
  say "query: %s@." (Odb.Query.to_string q_chang);
  say "advisor's sufficient set: {%s}@." (String.concat ", " advised);
  say "%-44s | %9s | %6s | %9s | %8s | %5s@." "index set" "regions" "cands"
    "parsed B" "time ms" "exact";
  List.iter
    (fun (label, index) ->
      let src = bibtex_source ?index n in
      let r, ms = time_ms ~repeat:5 (fun () -> or_die (Oqf.Execute.run src q_chang)) in
      say "%-44s | %9d | %6d | %9d | %8.2f | %5b@." label
        (Pat.Instance.total_regions src.Oqf.Execute.instance)
        r.Oqf.Execute.candidates_count r.Oqf.Execute.stats.bytes_parsed ms
        r.Oqf.Execute.plan.Oqf.Plan.exact)
    [
      ("{Reference}", Some [ "Reference" ]);
      ("{Reference, Last_Name}", Some [ "Reference"; "Last_Name" ]);
      ("advisor set (exactness threshold)", Some advised);
      ("advisor + Name, Editors", Some (advised @ [ "Name"; "Editors" ]));
      ("full indexing", None);
    ];
  (* §7's final refinement: index only the last names that reside in an
     Authors region.  Two indexed names answer the query exactly with a
     hand-written simple-inclusion expression. *)
  let scoped =
    or_die
      (Fschema.View.index_file_specs view (bibtex_text n)
         ~specs:
           [
             Fschema.View.Plain "Reference";
             Fschema.View.Scoped
               {
                 name = "Last_Name";
                 within = "Authors";
                 alias = "Author_Last_Name";
               };
           ])
  in
  let run_scoped () =
    let before = Stdx.Stats.snapshot () in
    let wi = Pat.Instance.word_index scoped in
    let hits =
      Pat.Region_set.including
        (Pat.Instance.find scoped "Reference")
        (Pat.Word_index.select_exact wi "Chang"
           (Pat.Instance.find scoped "Author_Last_Name"))
    in
    (* materialise the answers like the other rows do *)
    Pat.Region_set.iter
      (fun (r : Pat.Region.t) ->
        match
          Fschema.Parser_engine.parse_at Fschema.Bibtex_schema.grammar
            (bibtex_text n) ~symbol:"Reference" ~start:r.start ~stop:r.stop
        with
        | Ok _ -> ()
        | Error _ -> failwith "scoped candidate does not parse")
      hits;
    let after = Stdx.Stats.snapshot () in
    (hits, Stdx.Stats.diff ~before ~after)
  in
  let (hits, st), ms = time_ms ~repeat:5 run_scoped in
  say "%-44s | %9d | %6d | %9d | %8.2f | %5b@."
    "scoped {Reference, Last_Name within Authors}"
    (Pat.Instance.total_regions scoped)
    (Pat.Region_set.cardinal hits)
    st.Stdx.Stats.bytes_parsed ms true

(* ------------------------------------------------------------------ *)
(* E5 — §5.3: path expressions with variables are cheaper on region
   indices than by enumeration or OODB-style traversal. *)

let e5 () =
  heading "E5" "path variables *X: inclusion vs enumeration (§5.3)";
  let n = 800 in
  let src = bibtex_source n in
  let text = bibtex_text n in
  let q_star =
    Odb.Query_parser.parse_exn
      {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|}
  in
  let q_enum =
    Odb.Query_parser.parse_exn
      {|SELECT r FROM References r
        WHERE r.Authors.Name.Last_Name = "Chang"
           OR r.Editors.Name.Last_Name = "Chang"|}
  in
  let star_r, star_ms =
    time_ms (fun () -> or_die (Oqf.Execute.run src q_star))
  in
  let enum_r, enum_ms =
    time_ms (fun () -> or_die (Oqf.Execute.run src q_enum))
  in
  let (base_rows, _), base_ms =
    time_ms ~repeat:1 (fun () ->
        or_die (Oqf.Execute.run_baseline Fschema.Bibtex_schema.view text q_star))
  in
  assert (star_r.Oqf.Execute.rows = enum_r.Oqf.Execute.rows);
  assert (List.length base_rows = star_r.Oqf.Execute.answers_count);
  say "%-34s | %8s | %8s | %10s@." "strategy" "answers" "time ms" "index ops";
  say "%-34s | %8d | %8.2f | %10d@." "*X as single inclusion"
    star_r.Oqf.Execute.answers_count star_ms star_r.Oqf.Execute.stats.index_ops;
  say "%-34s | %8d | %8.2f | %10d@." "enumerated paths (union)"
    enum_r.Oqf.Execute.answers_count enum_ms enum_r.Oqf.Execute.stats.index_ops;
  say "%-34s | %8d | %8.2f | %10s@." "OODB traversal (baseline)"
    (List.length base_rows) base_ms "-";
  List.iter
    (fun (v, e) -> say "evaluated (%s): %a@." v Ralg.Expr.pp e)
    star_r.Oqf.Execute.evaluated

(* ------------------------------------------------------------------ *)
(* E6 — §5.2: index-assisted select–project–join. *)

let e6 () =
  heading "E6" "index-assisted join (§5.2)";
  let q_join =
    Odb.Query_parser.parse_exn
      {|SELECT r.Key FROM References r, References s
        WHERE r.Editors.Name.Last_Name = s.Authors.Name.Last_Name
        AND r.Year = "1982"|}
  in
  say "query: editors of 1982 books who author elsewhere (self-join)@.";
  say "%8s | %27s | %27s | %20s@." "refs" "assisted (ms, cands, B)"
    "unassisted (ms, cands, B)" "database (ms, B)";
  List.iter
    (fun n ->
      let src = bibtex_source n in
      let text = bibtex_text n in
      let a_r, a_ms = time_ms (fun () -> or_die (Oqf.Execute.run src q_join)) in
      let u_r, u_ms =
        time_ms (fun () ->
            or_die (Oqf.Execute.run ~join_assist:false src q_join))
      in
      let (b_rows, b_stats), b_ms =
        time_ms ~repeat:1 (fun () ->
            or_die
              (Oqf.Execute.run_baseline Fschema.Bibtex_schema.view text q_join))
      in
      assert (a_r.Oqf.Execute.rows = u_r.Oqf.Execute.rows);
      assert (List.length b_rows = a_r.Oqf.Execute.answers_count);
      say "%8d | %9.2f %5d %10d | %9.2f %5d %10d | %9.2f %9d@." n a_ms
        a_r.Oqf.Execute.candidates_count a_r.Oqf.Execute.stats.bytes_parsed u_ms
        u_r.Oqf.Execute.candidates_count u_r.Oqf.Execute.stats.bytes_parsed b_ms
        b_stats.Stdx.Stats.bytes_parsed)
    [ 200; 800 ]

(* ------------------------------------------------------------------ *)
(* E7 — §5.3: transitive closure as one inclusion test on self-nested
   regions. *)

let e7 () =
  heading "E7" "closure over self-nested sections (§5.3)";
  let q =
    Odb.Query_parser.parse_exn
      {|SELECT s.Heading FROM Sections s WHERE s.*X.Para CONTAINS "index"|}
  in
  say
    "query: headings of sections transitively containing the word (any \
     depth); the region plan is index-only@.";
  say "%6s | %8s | %8s | %18s | %18s@." "depth" "sections" "answers"
    "regions (ms)" "database (ms)";
  List.iter
    (fun depth ->
      let text =
        Pat.Text.of_string
          (Workload.Sgml_gen.generate
             {
               (Workload.Sgml_gen.with_depth depth) with
               top_sections = 8;
               fanout = 3;
             })
      in
      let src =
        or_die (Oqf.Execute.make_source_full Fschema.Sgml_schema.view text)
      in
      let r, r_ms = time_ms (fun () -> or_die (Oqf.Execute.run src q)) in
      let (b_rows, _), b_ms =
        time_ms ~repeat:1 (fun () ->
            or_die (Oqf.Execute.run_baseline Fschema.Sgml_schema.view text q))
      in
      assert (List.length b_rows = r.Oqf.Execute.answers_count);
      let sections =
        Pat.Region_set.cardinal
          (Pat.Instance.find src.Oqf.Execute.instance "Section")
      in
      say "%6d | %8d | %8d | %18.2f | %18.2f@." depth sections
        r.Oqf.Execute.answers_count r_ms b_ms)
    [ 3; 5; 7 ]

(* ------------------------------------------------------------------ *)
(* E8 — §3.1: direct inclusion is significantly more expensive than
   simple inclusion, and the cost grows with nesting depth.  That cost
   belongs to the flat-set scan (the test kit's [Support.Scan]): over
   the region forest of a parse-tree universe lib's kernel answers ⊃d
   by parent lookups.  All three ⊃d columns are asserted equal. *)

let e8 () =
  heading "E8" "cost of direct inclusion vs simple inclusion (§3.1)";
  say "operands: Section vs Para region sets of growing nesting depth@.";
  say "%6s | %8s | %16s | %16s | %16s | %14s@." "depth" "regions"
    "> (ms, cmps)" "scan >d (ms, cmps)" "forest >d" "layered >d ms";
  let cmps f =
    let before = Stdx.Stats.(value region_comparisons) in
    let r = f () in
    (r, Stdx.Stats.(value region_comparisons) - before)
  in
  List.iter
    (fun depth ->
      let text =
        Pat.Text.of_string
          (Workload.Sgml_gen.generate
             {
               (Workload.Sgml_gen.with_depth depth) with
               top_sections = 6;
               fanout = 3;
             })
      in
      let inst =
        or_die
          (Fschema.View.index_file Fschema.Sgml_schema.view text
             ~keep:(Fschema.Grammar.indexable Fschema.Sgml_schema.grammar))
      in
      let sections = Pat.Instance.find inst "Section" in
      let paras = Pat.Instance.find inst "Para" in
      let ctx = Pat.Instance.universe inst in
      let forest = Pat.Instance.forest inst in
      let (simple, simple_cmps), simple_ms =
        time_ms (fun () ->
            cmps (fun () -> Pat.Region_set.including sections paras))
      in
      let (direct, direct_cmps), direct_ms =
        time_ms (fun () ->
            cmps (fun () ->
                Support.Scan.directly_including ~context:ctx sections paras))
      in
      let (in_forest, forest_cmps), forest_ms =
        time_ms (fun () ->
            cmps (fun () ->
                Pat.Region_set.directly_including_in forest sections paras))
      in
      let layered, layered_ms =
        time_ms (fun () ->
            Support.Scan.direct_including_layered ~context:ctx sections paras)
      in
      assert (Pat.Region_set.equal direct layered);
      assert (Pat.Region_set.equal direct in_forest);
      assert (Pat.Region_set.subset direct simple);
      say "%6d | %8d | %9.2f %6d | %9.2f %6d | %9.2f %6d | %14.2f@." depth
        (Pat.Region_set.cardinal ctx)
        simple_ms simple_cmps direct_ms direct_cmps forest_ms forest_cmps
        layered_ms)
    [ 2; 4; 6; 8; 10 ];
  (* Worst case: one wide region over n points, each shadowed by a
     tight wrapper placed at the very end of its blocking window —
     deciding "nothing strictly in between" then scans quadratically,
     while simple inclusion stays near-linear.  The universe nests, so
     the forest kernel finds each point's parent (its wrapper) in linear
     time. *)
  say "@.worst case: wide region over n late-blocked points@.";
  say "%8s | %16s | %16s | %16s | %14s@." "n" "> (ms, cmps)"
    "scan >d (ms, cmps)" "forest >d" "layered >d ms";
  let worst =
  List.map
    (fun n ->
      let windows = Pat.Region_set.of_pairs [ (0, (3 * n) + 3) ] in
      let points =
        Pat.Region_set.of_pairs (List.init n (fun i -> ((3 * i) + 1, (3 * i) + 2)))
      in
      let wrappers =
        Pat.Region_set.of_pairs (List.init n (fun i -> (3 * i, (3 * i) + 3)))
      in
      let ctx = Pat.Region_set.merge [ windows; points; wrappers ] in
      let forest = Pat.Region_set.forest ctx in
      let (_, simple_cmps), simple_ms =
        time_ms (fun () ->
            cmps (fun () -> Pat.Region_set.including windows points))
      in
      let (direct, direct_cmps), direct_ms =
        time_ms (fun () ->
            cmps (fun () ->
                Support.Scan.directly_including ~context:ctx windows points))
      in
      let (in_forest, forest_cmps), forest_ms =
        time_ms (fun () ->
            cmps (fun () ->
                Pat.Region_set.directly_including_in forest windows points))
      in
      let layered, layered_ms =
        time_ms (fun () ->
            Support.Scan.direct_including_layered ~context:ctx windows points)
      in
      assert (Pat.Region_set.equal direct layered);
      assert (Pat.Region_set.equal direct in_forest);
      say "%8d | %9.2f %6d | %9.2f %6d | %9.2f %6d | %14.2f@." n simple_ms
        simple_cmps direct_ms direct_cmps forest_ms forest_cmps layered_ms;
      (n, (direct_cmps, forest_cmps)))
    [ 250; 500; 1000; 2000 ]
  in
  (* the gate: at n = 2000 the forest kernel does at most 1% of the
     scan's comparisons, and from n = 500 to 2000 (4x the points) its
     count grows at most 4x — linear, not quadratic *)
  let scan_2000, forest_2000 = List.assoc 2000 worst in
  let _, forest_500 = List.assoc 500 worst in
  let share_pct = 100.0 *. float forest_2000 /. float scan_2000 in
  let growth = float forest_2000 /. float forest_500 in
  say "E8 forest >d at n=2000: %.3f%% of the scan's cmps; n=500->2000 growth %.2fx@."
    share_pct growth;
  say "E8 forest check: %s@."
    (if share_pct <= 1.0 && growth <= 4.0 then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* B1 — index construction cost.  Not a paper claim (the paper assumes
   indexing "is a service given by the underlying text indexing
   system"); reported for operational context: how much one-time work
   the query-time savings cost. *)

let b1 () =
  heading "B1" "index construction cost (context; not a paper claim)";
  say "%8s | %8s | %12s | %14s | %14s | %12s@." "refs" "file KB" "parse ms"
    "suffix arr ms" "full order ms" "regions";
  List.iter
    (fun n ->
      let text = bibtex_text n in
      let (tree, inst), parse_ms =
        time_ms ~repeat:1 (fun () ->
            match
              Fschema.Parser_engine.parse Fschema.Bibtex_schema.grammar text
            with
            | Ok tree ->
                ( tree,
                  Fschema.Builder.instance_of_tree text tree
                    ~keep:
                      (Fschema.Grammar.indexable Fschema.Bibtex_schema.grammar)
                )
            | Error _ -> failwith "generator output must parse")
      in
      ignore tree;
      let _, sa_ms =
        time_ms ~repeat:1 (fun () -> Pat.Word_index.build text)
      in
      (* the build sorts lazily, per search; forcing the whole order
         shows what sorting every bucket costs *)
      let _, order_ms =
        time_ms ~repeat:1 (fun () ->
            Pat.Suffix_array.order (Pat.Suffix_array.build text))
      in
      say "%8d | %8d | %12.2f | %14.2f | %14.2f | %12d@." n
        (Pat.Text.length text / 1024)
        parse_ms sa_ms order_ms
        (Pat.Instance.total_regions inst))
    [ 200; 800; 3200 ]

(* ------------------------------------------------------------------ *)
(* Helpers shared by the experiments that record JSON series or need
   scratch directories. *)

(* experiment id -> series of ms measurements, dumped as JSON at exit
   so the perf trajectory is trackable across PRs *)
let json_series : (string * float list ref) list ref = ref []

let record id ms =
  match List.assoc_opt id !json_series with
  | Some cell -> cell := !cell @ [ ms ]
  | None -> json_series := !json_series @ [ (id, ref [ ms ]) ]

let emit_json ?(only_prefix = "") path =
  let series =
    List.filter
      (fun (id, _) -> String.starts_with ~prefix:only_prefix id)
      !json_series
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\n";
      let n = List.length series in
      List.iteri
        (fun i (id, cell) ->
          Printf.fprintf oc "  %S: [%s]%s\n" id
            (String.concat ", " (List.map (Printf.sprintf "%.3f") !cell))
            (if i = n - 1 then "" else ","))
        series;
      output_string oc "}\n");
  say "wrote %s@." path

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A new directory under $TMPDIR, removed with its contents at exit.
   The name carries a random suffix, drawn again should it exist, so a
   directory an earlier run left behind under the same pid is no
   obstacle. *)
let fresh_dir =
  let counter = ref 0 and rng = Random.State.make_self_init () in
  let rec make () =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "oqf_bench_%d_%d_%06x" (Unix.getpid ()) !counter
           (Random.State.bits rng land 0xffffff))
    in
    match Unix.mkdir d 0o755 with
    | () ->
        at_exit (fun () -> try remove_tree d with Unix.Unix_error _ -> ());
        d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> make ()
  in
  fun () ->
    incr counter;
    make ()

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ------------------------------------------------------------------ *)
(* O1 — observability overhead.  Tracing must be zero-cost when
   disabled: the public eval entry points check a single ref and
   dispatch to the uninstrumented path, so disabled-tracing time must
   stay within 5% of calling that path directly.  Traced time (events
   streamed to a JSON-lines sink on /dev/null) is reported for
   context, not bounded. *)

let o1 () =
  heading "O1" "tracing overhead: disabled dispatch vs uninstrumented path";
  let n = 1600 in
  let src = bibtex_source n in
  let opt_e =
    let plan = or_die
        (Result.map_error Oqf.Compile.error_message
           (Oqf.Compile.compile src.Oqf.Execute.env q_chang)) in
    match plan.Oqf.Plan.var_plans with
    | [ { Oqf.Plan.candidates = Oqf.Plan.Expr e; _ } ] ->
        Ralg.Optimizer.optimize src.Oqf.Execute.env.Oqf.Compile.query_rig e
    | _ -> failwith "unexpected plan shape"
  in
  assert (not (Obs.Trace.enabled ()));
  let iters = 40 in
  let eval_loop f () =
    for _ = 1 to iters do
      ignore (f src.Oqf.Execute.instance opt_e)
    done
  in
  say "E1 optimized expression on %d refs, %d evaluations per sample@." n
    iters;
  let (), plain_ms = time_ms ~repeat:7 (eval_loop Ralg.Eval.eval_shared_plain) in
  let (), disabled_ms = time_ms ~repeat:7 (eval_loop Ralg.Eval.eval_shared) in
  let devnull = open_out "/dev/null" in
  Obs.Trace.set_sink (Some (Obs.Sink.jsonl devnull));
  let (), traced_ms = time_ms ~repeat:3 (eval_loop Ralg.Eval.eval_shared) in
  Obs.Trace.set_sink None;
  close_out devnull;
  record "O1_eval_plain_ms" plain_ms;
  record "O1_eval_disabled_ms" disabled_ms;
  record "O1_eval_traced_ms" traced_ms;
  let overhead = (disabled_ms -. plain_ms) /. plain_ms *. 100.0 in
  say "%-36s %10.3f ms@." "uninstrumented (eval_shared_plain)" plain_ms;
  say "%-36s %10.3f ms@." "tracing disabled (eval_shared)" disabled_ms;
  say "%-36s %10.3f ms@." "tracing enabled (jsonl -> /dev/null)" traced_ms;
  say "disabled-tracing overhead: %+.2f%% — bound <= 5%%: %s@." overhead
    (if disabled_ms <= plain_ms *. 1.05 then "PASS" else "FAIL");
  (* the same bound on the whole query path: Execute.run with and
     without a sink, E1 query mix *)
  let q_star =
    Odb.Query_parser.parse_exn
      {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|}
  in
  let run_mix () =
    List.iter
      (fun q -> ignore (or_die (Oqf.Execute.run src q)))
      [ q_chang; q_star ]
  in
  let (), untraced_ms = time_ms ~repeat:7 run_mix in
  let devnull = open_out "/dev/null" in
  Obs.Trace.set_sink (Some (Obs.Sink.jsonl devnull));
  let (), traced_q_ms = time_ms ~repeat:3 run_mix in
  Obs.Trace.set_sink None;
  close_out devnull;
  record "O1_query_untraced_ms" untraced_ms;
  record "O1_query_traced_ms" traced_q_ms;
  say "query mix: untraced %.3f ms, traced %.3f ms (%.2fx)@." untraced_ms
    traced_q_ms (traced_q_ms /. untraced_ms)

(* ------------------------------------------------------------------ *)
(* P1 — parallel execution.  An 8-file log corpus (8 × 1,200 entries)
   evaluated at 1, 2 and 4 domains, plus the result cache on a
   repeated-query batch.  The speedup is bounded by the
   cores the container actually has — P1_cores records it so the JSON
   is interpretable; on a single-core host the 2- and 4-domain rows
   measure the pool's overhead, not a speedup. *)

(* A batch as [oqf batch] runs it: queries in input order through the
   streaming door on one shared pool and one shared cache. *)
let run_batch ~jobs ~cache corpus queries =
  Exec.Pool.with_pool ~jobs @@ fun pool ->
  List.map
    (fun q ->
      or_die
        (Exec.Driver.run_streaming ~cache ~pool
           ~on_rows:(fun ~file:_ _ -> ())
           corpus q))
    queries

let p1 () =
  heading "P1" "parallel corpus execution (1/2/4 domains) + result cache";
  let cores = Domain.recommended_domain_count () in
  record "P1_cores" (float_of_int cores);
  say "available cores (recommended_domain_count): %d@." cores;
  let files =
    List.init 8 (fun i ->
        ( Printf.sprintf "node%d.log" i,
          Pat.Text.of_string
            (Workload.Log_gen.generate
               { (Workload.Log_gen.with_size 1200) with seed = 50 + i }) ))
  in
  let corpus = or_die (Oqf.Corpus.make_full Fschema.Log_schema.view files) in
  let q =
    Odb.Query_parser.parse_exn
      {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}
  in
  let seq = or_die (Oqf.Corpus.run corpus q) in
  say "corpus: 8 log files, %d answer rows@."
    (List.length seq.Oqf.Corpus.rows);
  say "%8s | %10s | %8s@." "domains" "ms" "speedup";
  say "---------+------------+---------@.";
  let base_ms = ref 0.0 in
  List.iter
    (fun jobs ->
      let r, ms =
        time_ms ~repeat:3 (fun () ->
            or_die (Exec.Driver.run_parallel ~jobs corpus q))
      in
      (* whatever the domain count, the merged rows are the sequential
         rows — the soundness claim the qcheck suite proves in small *)
      assert (r.Exec.Driver.rows = seq.Oqf.Corpus.rows);
      if jobs = 1 then base_ms := ms;
      record (Printf.sprintf "P1_jobs%d_ms" jobs) ms;
      say "%8d | %10.2f | %7.2fx@." jobs ms (!base_ms /. ms))
    [ 1; 2; 4 ];
  (* the result cache on a repeated-query batch: 6 distinct queries,
     each asked 4 times -> 18 hits / 6 misses at steady state *)
  let distinct =
    List.map Odb.Query_parser.parse_exn
      [
        {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|};
        {|SELECT e.Service FROM Entries e WHERE e.Level = "WARN"|};
        {|SELECT e.Pid FROM Entries e WHERE e.Service = "auth"|};
        {|SELECT e FROM Entries e WHERE e.Service = "cache"|};
        {|SELECT e.Level FROM Entries e WHERE e.Service = "db"|};
        {|SELECT e.Service FROM Entries e WHERE e.Message CONTAINS "timeout"|};
      ]
  in
  let batch = List.concat (List.init 4 (fun _ -> distinct)) in
  let cache = Exec.Rcache.create () in
  let _, batch_ms =
    time_ms ~repeat:1 (fun () ->
        run_batch ~jobs:(min 4 cores) ~cache corpus batch)
  in
  let s = Exec.Rcache.stats cache in
  let hit_rate =
    float_of_int s.Exec.Rcache.hits
    /. float_of_int (s.Exec.Rcache.hits + s.Exec.Rcache.misses)
  in
  record "P1_batch_ms" batch_ms;
  record "P1_cache_hit_rate" hit_rate;
  say "batch of %d queries (%d distinct): %.2f ms, cache %a (hit rate %.2f)@."
    (List.length batch) (List.length distinct) batch_ms Exec.Rcache.pp_stats s
    hit_rate;
  (* cold vs warm: the same query straight through the cache *)
  let cache2 = Exec.Rcache.create () in
  let _, cold_ms =
    time_ms ~repeat:1 (fun () ->
        or_die (Exec.Driver.run_parallel ~jobs:1 ~cache:cache2 corpus q))
  in
  let _, warm_ms =
    time_ms ~repeat:1 (fun () ->
        or_die (Exec.Driver.run_parallel ~jobs:1 ~cache:cache2 corpus q))
  in
  record "P1_cache_cold_ms" cold_ms;
  record "P1_cache_warm_ms" warm_ms;
  say "cold %.3f ms -> warm (cached) %.3f ms@." cold_ms warm_ms

(* ------------------------------------------------------------------ *)
(* R1 — cost of the robustness layer.  The retry wrappers and fault
   hooks sit on every catalog read, index load and pool task, so they
   must be close to free when nothing is failing.  Three conditions on
   the P1 corpus: fault layer uninstalled, armed at probability zero
   (every site still consults the seeded schedule under its lock — the
   worst-case bookkeeping), and the full degradation ladder exercised
   with every pool task failing.  The acceptance gate is armed-at-zero
   overhead <= 5% over uninstalled, read as the median of
   [gate_pairs] paired ratios ([paired_overhead]). *)

let r1 () =
  heading "R1" "robustness layer overhead (target: no-fault cost <= 5%)";
  let files =
    List.init 8 (fun i ->
        ( Printf.sprintf "node%d.log" i,
          Pat.Text.of_string
            (Workload.Log_gen.generate
               { (Workload.Log_gen.with_size 1200) with seed = 50 + i }) ))
  in
  let corpus = or_die (Oqf.Corpus.make_full Fschema.Log_schema.view files) in
  let q =
    Odb.Query_parser.parse_exn
      {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}
  in
  let jobs = min 4 (Domain.recommended_domain_count ()) in
  let run ?fail_policy () =
    or_die (Exec.Driver.run_parallel ~jobs ?fail_policy corpus q)
  in
  (* the ladder, end to end: every per-file task fails permanently
     (after the retry layer's attempts), every file comes back through
     the naive scan.  It runs before the gate: after the gate's
     thousand runs the grown heap slowed its naive scans from ~55 to
     ~90 ms. *)
  (match Stdx.Fault.parse "permanent:1.0,only:pool.task" with
  | Ok c -> Stdx.Fault.set (Some c)
  | Error e -> failwith e);
  Stdx.Retry.Breaker.reset_all ();
  let degraded_out, degrade_ms =
    time_ms ~repeat:3 (fun () ->
        Stdx.Retry.Breaker.reset_all ();
        run ~fail_policy:Exec.Driver.Degrade ())
  in
  Stdx.Fault.set None;
  Stdx.Retry.Breaker.reset_all ();
  let armed =
    match Stdx.Fault.parse "transient:0.0,seed:1" with
    | Ok c -> c
    | Error e -> failwith e
  in
  let reference, armed_out, off_ms, armed_ms, ratio =
    paired_overhead
      ~arm:(fun () -> Stdx.Fault.set (Some armed))
      ~disarm:(fun () -> Stdx.Fault.set None)
      ~off:run ~armed:run ()
  in
  assert (armed_out.Exec.Driver.rows = reference.Exec.Driver.rows);
  assert (degraded_out.Exec.Driver.rows = reference.Exec.Driver.rows);
  assert (degraded_out.Exec.Driver.degraded <> []);
  let overhead_pct = (ratio -. 1.0) *. 100.0 in
  record "R1_off_ms" off_ms;
  record "R1_armed_zero_ms" armed_ms;
  record "R1_degrade_ladder_ms" degrade_ms;
  record "R1_overhead_pct" overhead_pct;
  say "fault layer off:        %8.2f ms (median of %d pairs)@." off_ms
    gate_pairs;
  say "armed at zero:          %8.2f ms (median paired ratio %+.1f%%)@."
    armed_ms overhead_pct;
  say "full degradation ladder:%8.2f ms (rows identical, %d recovery actions)@."
    degrade_ms
    (List.length degraded_out.Exec.Driver.degraded);
  say "R1 overhead check: %s@."
    (if overhead_pct <= 5.0 then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* O2 — telemetry overhead: the same parallel query with the query log
   installed and labelled metrics recording, vs bare.  The qlog
   flushes per record but only fsyncs on rotation, so the armed cost
   should stay in the noise.  Acceptance gate: overhead <= 5%, read as
   the median of [gate_pairs] paired ratios ([paired_overhead]). *)

let o2 () =
  heading "O2" "telemetry overhead: qlog + labelled metrics (target <= 5%)";
  let files =
    List.init 8 (fun i ->
        ( Printf.sprintf "node%d.log" i,
          Pat.Text.of_string
            (Workload.Log_gen.generate
               { (Workload.Log_gen.with_size 1200) with seed = 90 + i }) ))
  in
  let corpus = or_die (Oqf.Corpus.make_full Fschema.Log_schema.view files) in
  let q =
    Odb.Query_parser.parse_exn
      {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}
  in
  let jobs = min 4 (Domain.recommended_domain_count ()) in
  let run ?qctx () = or_die (Exec.Driver.run_parallel ~jobs ?qctx corpus q) in
  let log =
    or_die (Obs.Qlog.open_log (Filename.concat (fresh_dir ()) "bench.qlog"))
  in
  let reference, armed_out, off_ms, armed_ms, ratio =
    paired_overhead
      ~arm:(fun () -> Obs.Qlog.install (Some log))
      ~disarm:(fun () -> Obs.Qlog.install None)
      ~off:run
      ~armed:(fun () ->
        run
          ~qctx:
            {
              Obs.Qlog.trace_id = Obs.Qlog.gen_trace_id ();
              workload = "bench";
            }
          ())
      ()
  in
  Obs.Qlog.close log;
  assert (armed_out.Exec.Driver.rows = reference.Exec.Driver.rows);
  (* every armed run left one durable, parseable record *)
  let records, skipped =
    match Obs.Qlog.fold (Obs.Qlog.path log) ~init:0 ~f:(fun n _ -> n + 1) with
    | Ok r -> r
    | Error e -> failwith e
  in
  assert (skipped = 0);
  assert (records = gate_pairs * gate_rounds);
  let overhead_pct = (ratio -. 1.0) *. 100.0 in
  record "O2_off_ms" off_ms;
  record "O2_armed_ms" armed_ms;
  record "O2_overhead_pct" overhead_pct;
  say "telemetry off:      %8.2f ms (median of %d pairs)@." off_ms
    gate_pairs;
  say
    "qlog + metrics on:  %8.2f ms (median paired ratio %+.1f%%), %d qlog \
     records@."
    armed_ms overhead_pct records;
  say "O2 overhead check: %s@."
    (if overhead_pct <= 5.0 then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* CB1 — the cost-based planner vs the rule-based default, and the
   advisor's predicted savings vs measured deltas.  The cost planner
   picks among semantics-equivalent candidates (the Prop 3.5 closure),
   so on these workloads it can only lose by planning overhead (the
   per-run statistics sweep and plan enumeration) or a bad estimate;
   the acceptance gate is cost-mode workload time <= rules-mode time
   x 1.05, read as the median of [gate_pairs] paired ratios
   ([paired_overhead]).  The advisor then replays the measured
   workload under a root-only index, and its top recommendation's
   predicted saving is compared against the delta actually measured
   after building the recommended index — EXPERIMENTS CB1 requires
   agreement within 2x. *)

let cb1_log_queries =
  [
    {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|};
    {|SELECT e.Level FROM Entries e WHERE e.Service = "db"|};
    {|SELECT e.Message FROM Entries e WHERE e.Level = "WARN"|};
    {|SELECT e FROM Entries e WHERE e.Level = "FATAL"|};
  ]

let cb1_bibtex_queries =
  [
    {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
    {|SELECT r.Key FROM References r WHERE r.Year = "1982"|};
    {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|};
  ]

let cb1 () =
  heading "CB1"
    "cost-based planning vs rules (gate <= 5%); advisor predicted vs measured";
  let files =
    List.init 8 (fun i ->
        ( Printf.sprintf "node%d.log" i,
          Pat.Text.of_string
            (Workload.Log_gen.generate
               { (Workload.Log_gen.with_size 1200) with seed = 130 + i }) ))
  in
  let log_corpus =
    or_die (Oqf.Corpus.make_full Fschema.Log_schema.view files)
  in
  let jobs = min 4 (Domain.recommended_domain_count ()) in
  let bib = bibtex_source 400 in
  let parse = List.map Odb.Query_parser.parse_exn in
  let log_qs = parse cb1_log_queries and bib_qs = parse cb1_bibtex_queries in
  let workload mode () =
    ( List.map
        (fun q ->
          (or_die (Exec.Driver.run_parallel ~jobs ~plan_mode:mode log_corpus q))
            .Exec.Driver.rows)
        log_qs,
      List.map
        (fun q -> (or_die (Oqf.Execute.run ~plan_mode:mode bib q)).Oqf.Execute.rows)
        bib_qs )
  in
  let rules_rows, cost_rows, rules_ms, cost_ms, ratio =
    paired_overhead ~arm:ignore ~disarm:ignore
      ~off:(workload Oqf_cost.Planner.Rules)
      ~armed:(workload Oqf_cost.Planner.Cost_based)
      ()
  in
  (* both modes pick from rewrite-equivalent plans only *)
  assert (rules_rows = cost_rows);
  let overhead_pct = (ratio -. 1.0) *. 100.0 in
  record "CB1_rules_ms" rules_ms;
  record "CB1_cost_ms" cost_ms;
  record "CB1_overhead_pct" overhead_pct;
  say "workload of %d queries: rules %.2f ms, cost %.2f ms (median of %d \
       pairs; median paired ratio %+.1f%%)@."
    (List.length log_qs + List.length bib_qs)
    rules_ms cost_ms gate_pairs overhead_pct;
  say "CB1 planner check: %s@."
    (if overhead_pct <= 5.0 then "PASS" else "FAIL");
  (* --- advisor: predicted vs measured ----------------------------- *)
  let dir = fresh_dir () in
  let view = Fschema.Log_schema.view in
  let corpus_text =
    Workload.Log_gen.generate
      { (Workload.Log_gen.with_size 3000) with seed = 131 }
  in
  let log_path = Filename.concat dir "cb1.log" in
  write_file log_path corpus_text;
  let catdir = Filename.concat dir "cat" in
  let cat = or_die (Oqf_catalog.Catalog.init catdir) in
  ignore (or_die (Oqf_catalog.Catalog.add cat ~schema:"log" log_path));
  let stats = Oqf_cost.Stats.of_entries (Oqf_catalog.Catalog.entries cat) in
  let text = Pat.Text.of_string corpus_text in
  (* nothing indexed: every replayed query answers from a whole-file
     parse, the advisor's worst case and the one §7 opens with *)
  let base_index = [] in
  let timed src qt =
    let q = Odb.Query_parser.parse_exn qt in
    snd (time_ms ~repeat:5 (fun () -> or_die (Oqf.Execute.run src q)))
  in
  let src_base = or_die (Oqf.Execute.make_source view text ~index:base_index) in
  let base_ms = List.map (fun qt -> (qt, timed src_base qt)) cb1_log_queries in
  let items =
    List.map
      (fun (qt, ms) ->
        {
          Oqf_cost.Advise.query = qt;
          schema = "log";
          workload = "bench";
          count = 1;
          total_ms = ms;
        })
      base_ms
  in
  let compile ~index ~schema:_ q_text =
    match Odb.Query_parser.parse q_text with
    | Error e -> Error (Format.asprintf "%a" Odb.Query_parser.pp_error e)
    | Ok q -> (
        match Oqf.Compile.compile (Oqf.Compile.env view ~index) q with
        | Error e -> Error (Oqf.Compile.error_message e)
        | Ok plan ->
            Ok
              (List.map
                 (fun (vp : Oqf.Plan.var_plan) ->
                   match vp.Oqf.Plan.candidates with
                   | Oqf.Plan.All -> `Scan
                   | Oqf.Plan.Empty -> `Empty
                   | Oqf.Plan.Expr e -> `Index (e, vp.Oqf.Plan.covered))
                 plan.Oqf.Plan.var_plans))
  in
  let recs = Oqf_cost.Advise.advise ~stats ~compile ~index:base_index items in
  let top =
    match
      List.filter (fun r -> r.Oqf_cost.Advise.action = `Add) recs
    with
    | r :: _ -> r
    | [] -> failwith "advisor returned no addition on an uncovered workload"
  in
  say "top recommendation: add %s — %s@." top.Oqf_cost.Advise.name
    top.Oqf_cost.Advise.detail;
  let src_plus =
    or_die
      (Oqf.Execute.make_source view text
         ~index:(top.Oqf_cost.Advise.name :: base_index))
  in
  let plus_total =
    List.fold_left (fun acc (qt, _) -> acc +. timed src_plus qt) 0.0 base_ms
  in
  let base_total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 base_ms in
  let measured = Float.max 0.001 (base_total -. plus_total) in
  let predicted = top.Oqf_cost.Advise.predicted_ms in
  let ratio = predicted /. measured in
  record "CB1_advise_predicted_ms" predicted;
  record "CB1_advise_measured_ms" measured;
  record "CB1_advise_ratio" ratio;
  say "workload un-indexed: %.2f ms; after adding %s: %.2f ms@." base_total
    top.Oqf_cost.Advise.name plus_total;
  say "predicted saving %.2f ms, measured %.2f ms (ratio %.2fx)@." predicted
    measured ratio;
  say "CB1 advisor check: %s@."
    (if ratio >= 0.5 && ratio <= 2.0 then "PASS (within 2x)" else "FAIL")

(* ------------------------------------------------------------------ *)
(* W1 — live corpora: watch-mode ingest under MVCC snapshot isolation.
   Two gates, both CI-enforced and both read off one run:
   1. warm query p95 while the watcher ingests stays within 2x of the
      idle warm p95;
   2. zero failed or partially-read queries, and a snapshot pinned
      before the writer starts answers byte-identically, across 50
      concurrent refresh commits.
   Crash safety at the commit and retire sites is replayed by CI's
   crash-recovery step, which kills `oqf catalog refresh` at each. *)

let w1_query =
  Odb.Query_parser.parse_exn
    {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}

let w1_grow file sizes i =
  sizes.(i) <- sizes.(i) + 20;
  write_file file
    (Workload.Log_gen.generate (Workload.Log_gen.with_size sizes.(i)))

let w1_setup n_files entries =
  let dir = fresh_dir () in
  let files =
    Array.init n_files (fun i ->
        Filename.concat dir (Printf.sprintf "w%d.log" i))
  in
  let sizes = Array.init n_files (fun i -> entries + (7 * i)) in
  Array.iteri
    (fun i f ->
      write_file f
        (Workload.Log_gen.generate (Workload.Log_gen.with_size sizes.(i))))
    files;
  let cat = or_die (Oqf_catalog.Catalog.init (Filename.concat dir "cat")) in
  Array.iter
    (fun f ->
      ignore
        (or_die (Oqf_catalog.Catalog.add cat ~schema:"log" f)
          : Oqf_catalog.Catalog.entry))
    files;
  (files, sizes, cat)

let w1_rows_image corpus =
  match Oqf.Corpus.run corpus w1_query with
  | Error e -> Error e
  | Ok out ->
      Ok
        (String.concat "\n"
           (List.map
              (fun (f, row) ->
                f ^ "|"
                ^ String.concat "," (List.map Odb.Value.to_display_string row))
              out.Oqf.Corpus.rows))

let w1 () =
  heading "W1" "live ingest: query p95 under ingest, snapshot stability";
  let files, sizes, cat = w1_setup 3 300 in
  let lock = Mutex.create () in
  (* serve-style reader: pin per query, cache the built corpus keyed by
     generation, so queries within one generation are warm and only the
     first query after a commit rebuilds *)
  let corpus_cache = ref None in
  let query_once () =
    let t0 = Unix.gettimeofday () in
    let r =
      Oqf_catalog.Catalog.with_snapshot cat (fun snap ->
          let gen = Oqf_catalog.Catalog.snapshot_generation snap in
          let corpus =
            match !corpus_cache with
            | Some (g, c) when g = gen -> Ok c
            | _ -> (
                match Oqf.Corpus.of_snapshot snap ~schema:"log" with
                | Error e -> Error e
                | Ok (_, _ :: _) -> Error "a pinned file degraded"
                | Ok (c, []) ->
                    corpus_cache := Some (gen, c);
                    Ok c)
          in
          Result.bind corpus w1_rows_image)
    in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  (* warm the reader before the writer starts *)
  for _ = 1 to 5 do
    ignore (query_once ())
  done;
  (* pin now: this snapshot must answer byte-identically after all 50
     commits land *)
  let pinned = Oqf_catalog.Catalog.pin cat in
  let pinned_image () =
    match Oqf.Corpus.of_snapshot pinned ~schema:"log" with
    | Error e -> Error e
    | Ok (corpus, _) -> w1_rows_image corpus
  in
  let reference = match pinned_image () with Ok s -> s | Error e -> failwith e in
  let commits = 50 in
  let commit_lats = ref [] in
  let writer_done = Atomic.make false in
  (* the production watcher runs in its own domain (Watch.start) and
     polls on an interval; mirror both — true parallelism, with an
     aggressive 100ms cadence (the serve default is 500ms) *)
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to commits do
          let j = (i - 1) mod Array.length files in
          w1_grow files.(j) sizes j;
          let t0 = Unix.gettimeofday () in
          let (_ : Oqf_catalog.Watch.report) =
            Oqf_catalog.Watch.scan ~lock cat
          in
          commit_lats := ((Unix.gettimeofday () -. t0) *. 1000.) :: !commit_lats;
          Unix.sleepf 0.1
        done;
        Atomic.set writer_done true)
  in
  let lats = ref [] and failures = ref [] in
  while not (Atomic.get writer_done) do
    let r, ms = query_once () in
    lats := ms :: !lats;
    match r with Ok _ -> () | Error e -> failures := e :: !failures
  done;
  Domain.join writer;
  (* idle baseline over the SAME (final) corpus, writer quiet — the
     corpus grew during ingest, so a pre-ingest baseline would charge
     data growth to ingest interference *)
  for _ = 1 to 5 do
    ignore (query_once ())
  done;
  let idle = Array.init 60 (fun _ -> snd (query_once ())) in
  Array.sort compare idle;
  let idle_p95 = pct idle 95. in
  record "W1_idle_p95_ms" idle_p95;
  let ingest = Array.of_list !lats in
  Array.sort compare ingest;
  let ingest_p95 = pct ingest 95. in
  let ratio = if idle_p95 > 0. then ingest_p95 /. idle_p95 else 0. in
  let commit_sorted = Array.of_list !commit_lats in
  Array.sort compare commit_sorted;
  record "W1_ingest_p95_ms" ingest_p95;
  record "W1_ingest_ratio" ratio;
  record "W1_commit_p95_ms" (pct commit_sorted 95.);
  record "W1_queries_during_ingest" (float_of_int (Array.length ingest));
  record "W1_failed_queries" (float_of_int (List.length !failures));
  say
    "idle warm p95 %.3f ms; during %d watcher commits: %d queries, p50 %.3f \
     p90 %.3f p95 %.3f p99 %.3f max %.3f ms (p95 %.2fx idle), commit p95 \
     %.3f ms@."
    idle_p95 commits (Array.length ingest) (pct ingest 50.)
    (pct ingest 90.) ingest_p95 (pct ingest 99.)
    ingest.(Array.length ingest - 1)
    ratio
    (pct commit_sorted 95.);
  say "W1 ingest-latency check: %s (gate <= 2x idle p95)@."
    (if ratio <= 2.0 && Array.length ingest > 0 then "PASS" else "FAIL");
  (* stability: the pre-writer snapshot still answers byte-identically,
     and nothing failed or read a half-committed corpus meanwhile *)
  let stable =
    match pinned_image () with
    | Ok s -> s = reference
    | Error e ->
        say "  pinned re-read failed: %s@." e;
        false
  in
  Oqf_catalog.Catalog.release pinned;
  List.iter (fun e -> say "  failed query: %s@." e) !failures;
  record "W1_snapshot_stable" (if stable then 1. else 0.);
  say "W1 snapshot-stability check: %s (%d commits, %d failed queries, \
       pinned rows %s)@."
    (if stable && !failures = [] then "PASS" else "FAIL")
    commits (List.length !failures)
    (if stable then "byte-identical" else "CHANGED")

(* `main.exe <id>` runs just that experiment and writes only its JSON,
   if it has one — the CI gates and the per-experiment table and JSON
   refreshes use this.  Any other argument is refused. *)
let single =
  [
    ("e8", (e8, None));
    ("b1", (b1, None));
    ("p1", (p1, Some ("P1_", "BENCH_parallel.json")));
    ("r1", (r1, Some ("R1_", "BENCH_robust.json")));
    ("o2", (o2, Some ("O2_", "BENCH_obs2.json")));
    ("cb1", (cb1, Some ("CB1_", "BENCH_cost.json")));
    ("w1", (w1, Some ("W1_", "BENCH_ingest.json")));
  ]

let () =
  say "Reproduction benches for 'Optimizing Queries on Files' (SIGMOD 1994)@.";
  (match Array.to_list Sys.argv with
  | [ _; id ] when List.mem_assoc id single ->
      let run, json = List.assoc id single in
      run ();
      Option.iter (fun (only_prefix, path) -> emit_json ~only_prefix path) json
  | _ :: _ :: _ ->
      prerr_endline
        ("usage: main.exe [" ^ String.concat "|" (List.map fst single) ^ "]");
      exit 2
  | _ ->
      e1 ();
      e2 ();
      e3 ();
      e4 ();
      e5 ();
      e6 ();
      e7 ();
      e8 ();
      b1 ();
      w1 ();
      o1 ();
      p1 ();
      r1 ();
      o2 ();
      cb1 ();
      emit_json ~only_prefix:"CB1_" "BENCH_cost.json";
      emit_json ~only_prefix:"O1_" "BENCH_obs.json";
      emit_json ~only_prefix:"O2_" "BENCH_obs2.json";
      emit_json ~only_prefix:"P1_" "BENCH_parallel.json";
      emit_json ~only_prefix:"R1_" "BENCH_robust.json";
      emit_json ~only_prefix:"W1_" "BENCH_ingest.json");
  say "@.done.@."
