(* Tests for the region algebra: RIG analyses, the Prop 3.3 triviality
   test, the Thm 3.6 optimizer (checked on the paper's own examples and
   on random RIG-satisfying instances), the evaluator vs the naive
   reference, and the expression parser. *)

open Ralg

(* ------------------------------------------------------------------ *)
(* The BibTeX RIG of §3.2 *)

let bibtex_rig =
  Rig.create
    ~names:
      [
        "Reference"; "Key"; "Authors"; "Title"; "Editors"; "Name";
        "First_Name"; "Last_Name";
      ]
    ~edges:
      [
        ("Reference", "Key");
        ("Reference", "Authors");
        ("Reference", "Title");
        ("Reference", "Editors");
        ("Authors", "Name");
        ("Editors", "Name");
        ("Name", "First_Name");
        ("Name", "Last_Name");
      ]

let expr = Alcotest.testable Expr.pp Expr.equal

let rig_tests =
  [
    Alcotest.test_case "reachable follows edges transitively" `Quick (fun () ->
        Alcotest.(check bool) "Ref->Last" true
          (Rig.reachable bibtex_rig "Reference" "Last_Name");
        Alcotest.(check bool) "Last->Ref" false
          (Rig.reachable bibtex_rig "Last_Name" "Reference");
        Alcotest.(check bool) "Title->Last" false
          (Rig.reachable bibtex_rig "Title" "Last_Name"));
    Alcotest.test_case "only_walk_is_edge" `Quick (fun () ->
        Alcotest.(check bool) "Ref->Authors" true
          (Rig.only_walk_is_edge bibtex_rig "Reference" "Authors");
        Alcotest.(check bool) "Name->Last" true
          (Rig.only_walk_is_edge bibtex_rig "Name" "Last_Name");
        Alcotest.(check bool) "Ref->Key" true
          (Rig.only_walk_is_edge bibtex_rig "Reference" "Key"));
    Alcotest.test_case "only_walk fails with a longer walk" `Quick (fun () ->
        let g =
          Rig.create ~names:[ "A"; "B"; "C" ]
            ~edges:[ ("A", "B"); ("A", "C"); ("C", "B") ]
        in
        Alcotest.(check bool) "A->B has detour" false
          (Rig.only_walk_is_edge g "A" "B");
        Alcotest.(check bool) "but every A->B walk could still matter" false
          (Rig.all_walks_start_with_edge g "A" "B"));
    Alcotest.test_case "all_walks_start_with_edge under a cycle" `Quick
      (fun () ->
        (* A -> B, B -> B (self-nesting): walks A->B->B… all start with
           the edge, but the edge is not the only walk. *)
        let g = Rig.create ~names:[ "A"; "B" ] ~edges:[ ("A", "B"); ("B", "B") ] in
        Alcotest.(check bool) "starts-with holds" true
          (Rig.all_walks_start_with_edge g "A" "B");
        Alcotest.(check bool) "only-walk fails" false
          (Rig.only_walk_is_edge g "A" "B"));
    Alcotest.test_case "separator" `Quick (fun () ->
        Alcotest.(check bool) "Name separates Authors from Last" true
          (Rig.separator bibtex_rig ~src:"Authors" ~dst:"Last_Name" ~via:"Name");
        Alcotest.(check bool) "Authors does not separate Ref from Last" false
          (Rig.separator bibtex_rig ~src:"Reference" ~dst:"Last_Name"
             ~via:"Authors");
        Alcotest.(check bool) "endpoint via is trivial" true
          (Rig.separator bibtex_rig ~src:"Reference" ~dst:"Key" ~via:"Reference"));
    Alcotest.test_case "partial RIG of §6.1" `Quick (fun () ->
        let p = Rig.partial bibtex_rig ~keep:[ "Reference"; "Key"; "Last_Name" ] in
        Alcotest.(check (list (pair string string)))
          "edges"
          [ ("Reference", "Key"); ("Reference", "Last_Name") ]
          (Rig.edges p));
    Alcotest.test_case "count_paths_avoiding distinguishes 1 from many" `Quick
      (fun () ->
        let keep = [ "Reference"; "Key"; "Last_Name" ] in
        let avoid n = List.mem n keep in
        Alcotest.(check bool) "Ref->Key unique" true
          (Rig.count_paths_avoiding bibtex_rig "Reference" "Key"
             ~avoid_interior:avoid
          = `One);
        Alcotest.(check bool) "Ref->Last ambiguous (authors vs editors)" true
          (Rig.count_paths_avoiding bibtex_rig "Reference" "Last_Name"
             ~avoid_interior:avoid
          = `Many);
        Alcotest.(check bool) "Key->Last zero" true
          (Rig.count_paths_avoiding bibtex_rig "Key" "Last_Name"
             ~avoid_interior:avoid
          = `Zero));
    Alcotest.test_case "count_paths_avoiding reports cycles as many" `Quick
      (fun () ->
        let g =
          Rig.create ~names:[ "A"; "B"; "X" ]
            ~edges:[ ("A", "X"); ("X", "X"); ("X", "B") ]
        in
        Alcotest.(check bool) "pumped walks" true
          (Rig.count_paths_avoiding g "A" "B" ~avoid_interior:(fun _ -> false)
          = `Many));
    Alcotest.test_case "interior_nodes" `Quick (fun () ->
        Alcotest.(check (list string))
          "Ref to Last"
          [ "Authors"; "Editors"; "Name" ]
          (Rig.interior_nodes bibtex_rig "Reference" "Last_Name"));
    Alcotest.test_case "to_dot lists nodes and highlights edges" `Quick
      (fun () ->
        let dot =
          Rig.to_dot ~highlight:[ ("Reference", "Authors") ] bibtex_rig
        in
        let has needle =
          let n = String.length dot and m = String.length needle in
          let rec go i =
            i + m <= n && (String.sub dot i m = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "digraph" true (has "digraph rig");
        Alcotest.(check bool) "node" true (has "\"Last_Name\"");
        Alcotest.(check bool) "highlighted edge" true
          (has "\"Reference\" -> \"Authors\" [style=\"dashed,bold\"");
        Alcotest.(check bool) "plain edge" true (has "\"Name\" -> \"Last_Name\";"));
    Alcotest.test_case "create rejects unknown endpoints" `Quick (fun () ->
        Alcotest.check_raises "unknown"
          (Invalid_argument "Rig.create: edge endpoint not a node: Z")
          (fun () ->
            ignore (Rig.create ~names:[ "A" ] ~edges:[ ("A", "Z") ])));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"partial == per-pair avoiding walks (cycles, self-loops)"
         QCheck.(make Gen.(int_bound 100000))
         (fun seed ->
           let prng = Stdx.Prng.create seed in
           let n = Stdx.Prng.int_in prng 1 8 in
           let names = List.init n (Printf.sprintf "N%d") in
           let pick () = Printf.sprintf "N%d" (Stdx.Prng.int prng n) in
           (* dense enough for cycles; self-loops arise from equal picks *)
           let edges =
             List.init (Stdx.Prng.int prng (2 * n * n)) (fun _ ->
                 (pick (), pick ()))
           in
           let rig = Rig.create ~names ~edges in
           (* names outside the graph are ignored but still avoided *)
           let keep =
             "Missing"
             :: Stdx.Prng.sample prng (Stdx.Prng.int_in prng 0 n) names
           in
           let partial = Rig.partial rig ~keep in
           let kept = List.sort_uniq compare (List.filter (Rig.mem rig) keep) in
           (* the definition: one avoiding search per pair *)
           let want =
             List.concat_map
               (fun a ->
                 List.filter_map
                   (fun b ->
                     if Rig.reachable_avoiding rig a b ~avoid:keep then
                       Some (a, b)
                     else None)
                   kept)
               kept
           in
           if Rig.names partial <> kept || Rig.edges partial <> want then
             QCheck.Test.fail_reportf "seed %d: edges %s, want %s" seed
               (String.concat " "
                  (List.map (fun (a, b) -> a ^ ">" ^ b) (Rig.edges partial)))
               (String.concat " " (List.map (fun (a, b) -> a ^ ">" ^ b) want))
           else true));
  ]

(* ------------------------------------------------------------------ *)
(* Optimizer on the paper's examples *)

let optimizer_tests =
  [
    Alcotest.test_case "§3.2 example: ⊃d chain optimises" `Quick (fun () ->
        let e1 =
          Expr.(
            name "Reference"
            >.. (name "Authors" >.. (name "Name" >.. exactly "Chang" (name "Last_Name"))))
        in
        let want =
          Expr.(
            name "Reference"
            >. (name "Authors" >. exactly "Chang" (name "Last_Name")))
        in
        Alcotest.check expr "normal form" want (Optimizer.optimize bibtex_rig e1));
    Alcotest.test_case "§5.2 example: ⊂d projection chain optimises" `Quick
      (fun () ->
        let e1 =
          Expr.(
            name "Last_Name"
            <.. (name "Name" <.. (name "Authors" <.. name "Reference")))
        in
        let want =
          Expr.(name "Last_Name" <. (name "Authors" <. name "Reference"))
        in
        Alcotest.check expr "normal form" want (Optimizer.optimize bibtex_rig e1));
    Alcotest.test_case "Authors test is kept (filters editors)" `Quick
      (fun () ->
        (* the optimiser must not shorten Reference ⊃ Authors ⊃ Last_Name *)
        let e =
          Expr.(name "Reference" >. (name "Authors" >. name "Last_Name"))
        in
        Alcotest.check expr "unchanged" e (Optimizer.optimize bibtex_rig e));
    Alcotest.test_case "selection blocks shortening" `Quick (fun () ->
        (* Name carries a selection, so it cannot be removed even though
           it separates Authors from First_Name. *)
        let e =
          Expr.(
            name "Authors"
            >. (contains "J" (name "Name") >. name "First_Name"))
        in
        Alcotest.check expr "unchanged" e (Optimizer.optimize bibtex_rig e));
    Alcotest.test_case "exact selection on cyclic rightmost keeps ⊃d" `Quick
      (fun () ->
        let g =
          Rig.create ~names:[ "A"; "B" ] ~edges:[ ("A", "B"); ("B", "B") ]
        in
        let direct = Expr.(name "A" >.. exactly "w" (name "B")) in
        Alcotest.check expr "kept direct" direct (Optimizer.optimize g direct);
        (* with a containment selection the rewrite is sound *)
        let contains_e = Expr.(name "A" >.. contains "w" (name "B")) in
        Alcotest.check expr "weakened"
          Expr.(name "A" >. contains "w" (name "B"))
          (Optimizer.optimize g contains_e));
    Alcotest.test_case "equal names are left untouched" `Quick (fun () ->
        let g = Rig.create ~names:[ "A" ] ~edges:[] in
        let e = Expr.(name "A" >.. name "A") in
        Alcotest.check expr "unchanged" e (Optimizer.optimize g e));
    Alcotest.test_case "optimize recurses under set operators" `Quick
      (fun () ->
        let chain =
          Expr.(name "Reference" >.. (name "Authors" >.. name "Name"))
        in
        let e = Expr.Setop (Expr.Union, chain, Expr.name "Key") in
        let want =
          Expr.Setop
            ( Expr.Union,
              Expr.(name "Reference" >. name "Authors"),
              Expr.name "Key" )
        in
        (* Reference ⊃d Authors ⊃d Name: both pairs weaken (only walks);
           then Authors separates Reference from Name, so the chain
           shortens to Reference ⊃ Authors … wait — Name is rightmost and
           carries no selection, and every Ref->Name walk passes through
           Authors or Editors, not only Authors.  Check the actual NF. *)
        ignore want;
        let got = Optimizer.optimize bibtex_rig e in
        let expected =
          Expr.Setop
            ( Expr.Union,
              Expr.(name "Reference" >. (name "Authors" >. name "Name")),
              Expr.name "Key" )
        in
        Alcotest.check expr "normal form" expected got);
    Alcotest.test_case "multi-step shortening reaches fixpoint" `Quick
      (fun () ->
        (* linear grammar A -> B -> C -> D: the whole chain collapses *)
        let g =
          Rig.create ~names:[ "A"; "B"; "C"; "D" ]
            ~edges:[ ("A", "B"); ("B", "C"); ("C", "D") ]
        in
        let e =
          Expr.(name "A" >.. (name "B" >.. (name "C" >.. name "D")))
        in
        Alcotest.check expr "collapsed"
          Expr.(name "A" >. name "D")
          (Optimizer.optimize g e));
  ]

(* ------------------------------------------------------------------ *)
(* Triviality (Prop 3.3) *)

let trivial_tests =
  [
    Alcotest.test_case "no-edge ⊃d is trivial" `Quick (fun () ->
        Alcotest.(check bool) "Ref ⊃d Name" true
          (Trivial.check bibtex_rig Expr.(name "Reference" >.. name "Name")));
    Alcotest.test_case "no-path ⊃ is trivial" `Quick (fun () ->
        Alcotest.(check bool) "Title ⊃ Last" true
          (Trivial.check bibtex_rig Expr.(name "Title" >. name "Last_Name"));
        Alcotest.(check bool) "e3 of the paper" true
          (Trivial.check bibtex_rig
             Expr.(name "Reference" >. (name "Title" >. name "Last_Name"))));
    Alcotest.test_case "reachable pairs are not trivial" `Quick (fun () ->
        Alcotest.(check bool) "Ref ⊃ Last" false
          (Trivial.check bibtex_rig Expr.(name "Reference" >. name "Last_Name")));
    Alcotest.test_case "⊂ family mirrors" `Quick (fun () ->
        Alcotest.(check bool) "Last ⊂ Title" true
          (Trivial.check bibtex_rig Expr.(name "Last_Name" <. name "Title"));
        Alcotest.(check bool) "Last ⊂ Authors" false
          (Trivial.check bibtex_rig Expr.(name "Last_Name" <. name "Authors")));
    Alcotest.test_case "set operators propagate emptiness" `Quick (fun () ->
        let empty_e = Expr.(name "Title" >. name "Last_Name") in
        let full_e = Expr.(name "Reference" >. name "Authors") in
        Alcotest.(check bool) "union of trivials" true
          (Trivial.check bibtex_rig (Expr.Setop (Expr.Union, empty_e, empty_e)));
        Alcotest.(check bool) "union with non-trivial" false
          (Trivial.check bibtex_rig (Expr.Setop (Expr.Union, empty_e, full_e)));
        Alcotest.(check bool) "inter with trivial" true
          (Trivial.check bibtex_rig (Expr.Setop (Expr.Inter, full_e, empty_e))));
    Alcotest.test_case "same name is not trivial" `Quick (fun () ->
        Alcotest.(check bool) "A ⊃ A" false
          (Trivial.check bibtex_rig Expr.(name "Reference" >. name "Reference")));
  ]

(* ------------------------------------------------------------------ *)
(* Random RIG-satisfying instances: optimizer soundness and eval vs
   naive reference. *)

(* Build a text of [n] single-character words ("a b c …") and a laminar
   instance over it guided by the RIG: children names follow edges, and
   spans nest strictly.  Word [k] occupies byte [2k]. *)
module Gen_instance = struct
  let word_start k = 2 * k
  let word_stop k = (2 * k) + 1

  type spec = { rig_names : string list; edges : (string * string) list }

  let random_rig prng =
    let k = Stdx.Prng.int_in prng 3 5 in
    let names = List.init k (fun i -> Printf.sprintf "N%d" i) in
    let arr = Array.of_list names in
    let edges = ref [] in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        if Stdx.Prng.int prng 100 < 45 then edges := (arr.(i), arr.(j)) :: !edges
      done
    done;
    (* occasionally allow self-nesting to exercise cycles *)
    if Stdx.Prng.int prng 100 < 30 then begin
      let n = Stdx.Prng.choose prng arr in
      edges := (n, n) :: !edges
    end;
    { rig_names = names; edges = !edges }

  let to_rig spec = Rig.create ~names:spec.rig_names ~edges:spec.edges

  (* Allocate child word-ranges strictly inside [lo, hi] (inclusive word
     indices), pairwise disjoint. *)
  let rec grow prng rig acc name lo hi depth =
    acc := (name, (word_start lo, word_stop hi)) :: !acc;
    if depth < 4 && hi - lo >= 1 then begin
      let succs = Rig.successors rig name in
      if succs <> [] then begin
        let n_children = Stdx.Prng.int prng 3 in
        let cursor = ref lo in
        for _ = 1 to n_children do
          if hi - !cursor >= 1 then begin
            let clo = Stdx.Prng.int_in prng !cursor (hi - 1) in
            let chi = Stdx.Prng.int_in prng clo (hi - 1) in
            (* ensure strict nesting: child range ≠ parent range *)
            if not (clo = lo && chi = hi) then begin
              let child = Stdx.Prng.choose_list prng succs in
              grow prng rig acc child clo chi (depth + 1)
            end;
            cursor := chi + 1
          end
        done
      end
    end

  let generate seed =
    let prng = Stdx.Prng.create seed in
    let spec = random_rig prng in
    let rig = to_rig spec in
    let n_words = 30 in
    let chars = Array.init n_words (fun _ -> Stdx.Prng.choose prng [| "a"; "b"; "c" |]) in
    let text_str = String.concat " " (Array.to_list chars) in
    let acc = ref [] in
    (* a handful of disjoint roots *)
    let cursor = ref 0 in
    while !cursor < n_words - 2 do
      let lo = !cursor in
      let hi = Stdx.Prng.int_in prng lo (min (n_words - 1) (lo + 12)) in
      let root = Stdx.Prng.choose_list prng spec.rig_names in
      grow prng rig acc root lo hi 0;
      cursor := hi + 2
    done;
    let by_name =
      List.map
        (fun n ->
          let pairs = List.filter_map
            (fun (m, span) -> if m = n then Some span else None)
            !acc
          in
          (n, Pat.Region_set.of_pairs pairs))
        spec.rig_names
    in
    let inst = Pat.Instance.create (Pat.Text.of_string text_str) by_name in
    (rig, inst, prng)

  let random_chain prng rig =
    let names = Array.of_list (Rig.names rig) in
    let len = Stdx.Prng.int_in prng 2 4 in
    let family = if Stdx.Prng.bool prng then Chain.Up else Chain.Down in
    let elements =
      List.init len (fun i ->
          let name = Stdx.Prng.choose prng names in
          let selection =
            if i = len - 1 && Stdx.Prng.int prng 100 < 40 then begin
              let w = Stdx.Prng.choose prng [| "a"; "b"; "c" |] in
              if Stdx.Prng.bool prng then Some (Expr.Exactly_word w)
              else Some (Expr.Contains_word w)
            end
            else None
          in
          { Chain.name; selection })
    in
    let strengths =
      List.init (len - 1) (fun _ ->
          if Stdx.Prng.bool prng then Chain.Direct else Chain.Simple)
    in
    Chain.to_expr { Chain.family; elements; strengths }
end

(* random region expressions over the instance's names: set operators,
   selections, ι/ω, chains, depth constraints *)
let rec random_general prng names depth =
  let leaf () = Expr.Name (Stdx.Prng.choose prng names) in
  if depth = 0 then leaf ()
  else begin
    match Stdx.Prng.int prng 10 with
    | 0 | 1 -> leaf ()
    | 2 ->
        Expr.Select
          ( (if Stdx.Prng.bool prng then
               Expr.Exactly_word (Stdx.Prng.choose prng [| "a"; "b"; "c" |])
             else
               Expr.Contains_word (Stdx.Prng.choose prng [| "a"; "b"; "c" |])),
            random_general prng names (depth - 1) )
    | 3 ->
        Expr.Setop
          ( Stdx.Prng.choose prng [| Expr.Union; Expr.Inter; Expr.Diff |],
            random_general prng names (depth - 1),
            random_general prng names (depth - 1) )
    | 4 -> Expr.Innermost (random_general prng names (depth - 1))
    | 5 -> Expr.Outermost (random_general prng names (depth - 1))
    | 6 ->
        Expr.At_depth
          ( Stdx.Prng.int prng 3,
            random_general prng names (depth - 1),
            random_general prng names (depth - 1) )
    | 7 ->
        Expr.Chain_strict
          ( random_general prng names (depth - 1),
            Stdx.Prng.choose prng
              [|
                Expr.Including; Expr.Directly_including; Expr.Included;
                Expr.Directly_included;
              |],
            random_general prng names (depth - 1) )
    | _ ->
        Expr.Chain
          ( random_general prng names (depth - 1),
            Stdx.Prng.choose prng
              [|
                Expr.Including; Expr.Directly_including; Expr.Included;
                Expr.Directly_included;
              |],
            random_general prng names (depth - 1) )
  end

let soundness_tests =
  [
    Alcotest.test_case "generated instances satisfy their RIG" `Quick
      (fun () ->
        for seed = 1 to 40 do
          let rig, inst, _ = Gen_instance.generate seed in
          match Support.Rig_check.satisfies_rig inst ~edges:(Rig.edges rig) with
          | None -> ()
          | Some (a, b) ->
              Alcotest.failf "seed %d: instance violates RIG on (%s,%s)" seed a
                b
        done);
    Alcotest.test_case "optimizer preserves semantics (400 random cases)"
      `Slow
      (fun () ->
        for seed = 1 to 400 do
          let rig, inst, prng = Gen_instance.generate seed in
          let e = Gen_instance.random_chain prng rig in
          let e' = Optimizer.optimize rig e in
          let v = Eval.eval inst e and v' = Eval.eval inst e' in
          if not (Pat.Region_set.equal v v') then
            Alcotest.failf "seed %d: %s ≠ optimized %s" seed (Expr.to_string e)
              (Expr.to_string e')
        done);
    Alcotest.test_case "trivial expressions evaluate to empty" `Slow (fun () ->
        for seed = 1 to 400 do
          let rig, inst, prng = Gen_instance.generate seed in
          let e = Gen_instance.random_chain prng rig in
          if Trivial.check rig e then begin
            let v = Eval.eval inst e in
            if not (Pat.Region_set.is_empty v) then
              Alcotest.failf "seed %d: trivial %s is non-empty" seed
                (Expr.to_string e)
          end
        done);
    Alcotest.test_case "rewrites are confluent (Thm 3.6, Church-Rosser)"
      `Slow
      (fun () ->
        (* apply the two rewrite rules one random applicable instance at
           a time until no rule applies; the result must equal the
           deterministic optimizer's normal form *)
        let randomized_optimize prng rig chain =
          let chain = ref chain in
          let continue_ = ref true in
          while !continue_ do
            let c = !chain in
            let elements = Array.of_list c.Chain.elements in
            let strengths = Array.of_list c.Chain.strengths in
            let n = Array.length strengths in
            (* collect applicable rewrites *)
            let weakenings =
              List.filter
                (fun i ->
                  strengths.(i) = Chain.Direct
                  && Optimizer.weaken_direct_pair rig ~family:c.Chain.family
                       ~left:elements.(i).Chain.name
                       ~right:elements.(i + 1).Chain.name
                       ~rightmost:(i = n - 1)
                       ~right_selection:elements.(i + 1).Chain.selection)
                (List.init n Fun.id)
            in
            let shortenings =
              List.filter
                (fun i ->
                  i + 1 < n
                  && strengths.(i) = Chain.Simple
                  && strengths.(i + 1) = Chain.Simple
                  && elements.(i + 1).Chain.selection = None
                  && Optimizer.can_shorten rig ~family:c.Chain.family
                       elements.(i).Chain.name
                       elements.(i + 1).Chain.name
                       elements.(i + 2).Chain.name)
                (List.init (max 0 (n - 1)) Fun.id)
            in
            let choices =
              List.map (fun i -> `Weaken i) weakenings
              @ List.map (fun i -> `Shorten i) shortenings
            in
            if choices = [] then continue_ := false
            else begin
              match Stdx.Prng.choose_list prng choices with
              | `Weaken i ->
                  strengths.(i) <- Chain.Simple;
                  chain :=
                    {
                      c with
                      Chain.strengths = Array.to_list strengths;
                    }
              | `Shorten i ->
                  let els =
                    List.filteri (fun j _ -> j <> i + 1) (Array.to_list elements)
                  in
                  let ss =
                    List.filteri (fun j _ -> j <> i + 1) (Array.to_list strengths)
                  in
                  chain := { c with Chain.elements = els; strengths = ss }
            end
          done;
          !chain
        in
        for seed = 1 to 300 do
          let rig, _, prng = Gen_instance.generate seed in
          let e = Gen_instance.random_chain prng rig in
          match Chain.of_expr e with
          | None -> ()
          | Some chain ->
              let deterministic = Optimizer.optimize_chain rig chain in
              for round = 1 to 3 do
                let randomized = randomized_optimize prng rig chain in
                if
                  not
                    (Expr.equal
                       (Chain.to_expr deterministic)
                       (Chain.to_expr randomized))
                then
                  Alcotest.failf
                    "seed %d round %d: %s normalizes to both %s and %s" seed
                    round (Expr.to_string e)
                    (Expr.to_string (Chain.to_expr deterministic))
                    (Expr.to_string (Chain.to_expr randomized))
              done
        done);
    Alcotest.test_case "partial RIG edges are unindexed-interior walks" `Quick
      (fun () ->
        for seed = 1 to 60 do
          let rig, _, prng = Gen_instance.generate seed in
          let names = Rig.names rig in
          let k = Stdx.Prng.int_in prng 1 (List.length names) in
          let keep = Stdx.Prng.sample prng k names in
          let partial = Rig.partial rig ~keep in
          (* naive check by direct walk search *)
          let naive_edge a b =
            let rec dfs visited n =
              List.exists
                (fun m ->
                  if m = b then true
                  else if List.mem m keep || List.mem m visited then false
                  else dfs (m :: visited) m)
                (Rig.successors rig n)
            in
            dfs [] a
          in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let got = Rig.has_edge partial a b in
                  let want = naive_edge a b in
                  if got <> want then
                    Alcotest.failf "seed %d: partial edge (%s,%s) %b vs %b"
                      seed a b got want)
                keep)
            keep
        done);
    Alcotest.test_case "optimizer is idempotent" `Quick (fun () ->
        for seed = 1 to 100 do
          let rig, _, prng = Gen_instance.generate seed in
          let e = Gen_instance.random_chain prng rig in
          let once = Optimizer.optimize rig e in
          let twice = Optimizer.optimize rig once in
          Alcotest.check expr "fixpoint" once twice
        done);
    Alcotest.test_case "optimizer never increases operator count" `Quick
      (fun () ->
        for seed = 1 to 100 do
          let rig, _, prng = Gen_instance.generate seed in
          let e = Gen_instance.random_chain prng rig in
          let e' = Optimizer.optimize rig e in
          Alcotest.(check bool)
            "size shrinks" true
            (Expr.size e' <= Expr.size e
            && Expr.count_ops e' Expr.Directly_including
               <= Expr.count_ops e Expr.Directly_including
            && Expr.count_ops e' Expr.Directly_included
               <= Expr.count_ops e Expr.Directly_included)
        done);
    Alcotest.test_case "eval agrees with naive reference" `Slow (fun () ->
        for seed = 1 to 300 do
          let rig, inst, prng = Gen_instance.generate seed in
          let e = Gen_instance.random_chain prng rig in
          let fast = Eval.eval inst e and slow = Support.Naive_eval.eval inst e in
          if not (Pat.Region_set.equal fast slow) then
            Alcotest.failf "seed %d: eval mismatch on %s" seed
              (Expr.to_string e)
        done);
    Alcotest.test_case "general expressions agree with naive reference" `Slow
      (fun () ->
        for seed = 1 to 250 do
          let rig, inst, prng = Gen_instance.generate seed in
          let names = Array.of_list (Rig.names rig) in
          let e = random_general prng names 3 in
          let fast = Eval.eval inst e
          and shared = Eval.eval_shared inst e
          and slow = Support.Naive_eval.eval inst e in
          if not (Pat.Region_set.equal fast slow) then
            Alcotest.failf "seed %d: eval mismatch on %s" seed (Expr.to_string e);
          if not (Pat.Region_set.equal shared slow) then
            Alcotest.failf "seed %d: eval_shared mismatch on %s" seed
              (Expr.to_string e)
        done);
    Alcotest.test_case "eval_shared evaluates common subexpressions once"
      `Quick
      (fun () ->
        let _, inst, _ = Gen_instance.generate 7 in
        let sub =
          match Pat.Instance.names inst with
          | a :: b :: _ -> Expr.(name a >. name b)
          | _ -> Alcotest.fail "need two names"
        in
        let e = Expr.Setop (Expr.Union, sub, Expr.Setop (Expr.Inter, sub, sub)) in
        let count f =
          let before = Stdx.Stats.(value index_ops) in
          ignore (f inst e);
          Stdx.Stats.(value index_ops) - before
        in
        let plain = count Eval.eval and shared = count Eval.eval_shared in
        Alcotest.(check bool)
          (Printf.sprintf "fewer ops (%d < %d)" shared plain)
          true (shared < plain));
    Alcotest.test_case "strict chains agree with naive reference" `Slow
      (fun () ->
        for seed = 1 to 200 do
          let rig, inst, prng = Gen_instance.generate seed in
          let names = Array.of_list (Rig.names rig) in
          let a = Stdx.Prng.choose prng names
          and b = Stdx.Prng.choose prng names in
          List.iter
            (fun op ->
              let e = Expr.Chain_strict (Expr.Name a, op, Expr.Name b) in
              let fast = Eval.eval inst e and slow = Support.Naive_eval.eval inst e in
              if not (Pat.Region_set.equal fast slow) then
                Alcotest.failf "seed %d: strict mismatch on %s" seed
                  (Expr.to_string e))
            [
              Expr.Including; Expr.Directly_including; Expr.Included;
              Expr.Directly_included;
            ]
        done);
    Alcotest.test_case "layered ⊃d program agrees on laminar instances"
      `Slow
      (fun () ->
        for seed = 1 to 200 do
          let rig, inst, prng = Gen_instance.generate seed in
          let names = Array.of_list (Rig.names rig) in
          let a = Stdx.Prng.choose prng names
          and b = Stdx.Prng.choose prng names in
          let ra = Pat.Instance.find inst a and rb = Pat.Instance.find inst b in
          let ctx = Pat.Instance.universe inst in
          let direct = Support.Scan.directly_including ~context:ctx ra rb in
          let layered = Support.Scan.direct_including_layered ~context:ctx ra rb in
          if not (Pat.Region_set.equal direct layered) then
            Alcotest.failf "seed %d: layered ≠ direct for %s ⊃d %s" seed a b
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Parser round-trip *)

let rec random_expr prng depth =
  let leaf () = Expr.Name (Stdx.Prng.choose prng [| "Alpha"; "Beta"; "Gamma_1" |]) in
  if depth = 0 then leaf ()
  else begin
    match Stdx.Prng.int prng 8 with
    | 0 -> leaf ()
    | 1 ->
        Expr.Select
          ( Stdx.Prng.choose prng
              [|
                Expr.Exactly_word "w1"; Expr.Contains_word "w2";
                Expr.Prefix_word "w3";
              |],
            random_expr prng (depth - 1) )
    | 2 ->
        Expr.Setop
          ( Stdx.Prng.choose prng [| Expr.Union; Expr.Inter; Expr.Diff |],
            random_expr prng (depth - 1),
            random_expr prng (depth - 1) )
    | 3 -> Expr.Innermost (random_expr prng (depth - 1))
    | 4 -> Expr.Outermost (random_expr prng (depth - 1))
    | 5 ->
        Expr.At_depth
          ( Stdx.Prng.int prng 4,
            random_expr prng (depth - 1),
            random_expr prng (depth - 1) )
    | 6 ->
        Expr.Chain_strict
          ( random_expr prng (depth - 1),
            Stdx.Prng.choose prng
              [|
                Expr.Including; Expr.Directly_including; Expr.Included;
                Expr.Directly_included;
              |],
            random_expr prng (depth - 1) )
    | _ ->
        Expr.Chain
          ( random_expr prng (depth - 1),
            Stdx.Prng.choose prng
              [|
                Expr.Including; Expr.Directly_including; Expr.Included;
                Expr.Directly_included;
              |],
            random_expr prng (depth - 1) )
  end

let parser_tests =
  [
    Alcotest.test_case "parses the paper's query expression" `Quick (fun () ->
        let got =
          Expr_parser.parse_exn
            "Reference >d Authors >d Name >d sigma[\"Chang\"](Last_Name)"
        in
        let want =
          Expr.(
            name "Reference"
            >.. (name "Authors" >.. (name "Name" >.. exactly "Chang" (name "Last_Name"))))
        in
        Alcotest.check expr "ast" want got);
    Alcotest.test_case "parses the §3.1 union example" `Quick (fun () ->
        let got =
          Expr_parser.parse_exn
            "(Reference > Authors > sigma[\"Chang\"](Last_Name)) | (Reference > Editors > sigma[\"Corliss\"](Last_Name))"
        in
        match got with
        | Expr.Setop (Expr.Union, _, _) -> ()
        | _ -> Alcotest.fail "expected a union");
    Alcotest.test_case "chain is right-associative" `Quick (fun () ->
        let got = Expr_parser.parse_exn "A > B > C" in
        Alcotest.check expr "grouping"
          Expr.(name "A" >. (name "B" >. name "C"))
          got);
    Alcotest.test_case "set operators are left-associative" `Quick (fun () ->
        let got = Expr_parser.parse_exn "A | B - C" in
        Alcotest.check expr "grouping"
          (Expr.Setop
             (Expr.Diff, Expr.Setop (Expr.Union, Expr.name "A", Expr.name "B"),
              Expr.name "C"))
          got);
    Alcotest.test_case ">d vs > followed by a name" `Quick (fun () ->
        Alcotest.check expr "A >d B"
          Expr.(name "A" >.. name "B")
          (Expr_parser.parse_exn "A >d B");
        Alcotest.check expr "A > delta"
          Expr.(name "A" >. name "delta")
          (Expr_parser.parse_exn "A > delta"));
    Alcotest.test_case "strict operators parse" `Quick (fun () ->
        Alcotest.check expr "A >! B"
          (Expr.Chain_strict (Expr.name "A", Expr.Including, Expr.name "B"))
          (Expr_parser.parse_exn "A >! B");
        Alcotest.check expr "A >d! B"
          (Expr.Chain_strict
             (Expr.name "A", Expr.Directly_including, Expr.name "B"))
          (Expr_parser.parse_exn "A >d! B");
        Alcotest.check expr "A <d! B"
          (Expr.Chain_strict
             (Expr.name "A", Expr.Directly_included, Expr.name "B"))
          (Expr_parser.parse_exn "A <d! B"));
    Alcotest.test_case "prefix selection parses" `Quick (fun () ->
        Alcotest.check expr "prefix"
          (Expr.Select (Expr.Prefix_word "Ref", Expr.name "Key"))
          (Expr_parser.parse_exn {|prefix["Ref"](Key)|}));
    Alcotest.test_case "reports errors with positions" `Quick (fun () ->
        (match Expr_parser.parse "A >" with
        | Error e -> Alcotest.(check bool) "position at end" true (e.position >= 3)
        | Ok _ -> Alcotest.fail "should not parse");
        match Expr_parser.parse "A @ B" with
        | Error e -> Alcotest.(check int) "position of @" 2 e.position
        | Ok _ -> Alcotest.fail "should not parse");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pp/parse round-trip" ~count:500
         QCheck.(make Gen.(int_bound 10000))
         (fun seed ->
           let prng = Stdx.Prng.create seed in
           let e = random_expr prng 4 in
           match Expr_parser.parse (Expr.to_string e) with
           | Ok e' -> Expr.equal e e'
           | Error _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: the annotated evaluator's per-node self costs must
   sum to exactly the work the evaluation charged to the global
   counters, and sharing must show up as cached zero-cost nodes. *)

let annot_tests =
  [
    Alcotest.test_case "annotated self costs sum to the stats delta" `Quick
      (fun () ->
        for seed = 1 to 50 do
          let rig, inst, prng = Gen_instance.generate seed in
          let names = Array.of_list (Rig.names rig) in
          let e = random_general prng names 3 in
          let ops0 = Stdx.Stats.(value index_ops)
          and cmps0 = Stdx.Stats.(value region_comparisons)
          and lk0 = Stdx.Stats.(value word_lookups) in
          let r, a = Eval.eval_annotated inst e in
          let d_ops = Stdx.Stats.(value index_ops) - ops0
          and d_cmps = Stdx.Stats.(value region_comparisons) - cmps0
          and d_lk = Stdx.Stats.(value word_lookups) - lk0 in
          if Annot.total_ops a <> d_ops then
            Alcotest.failf "seed %d: tree ops %d <> delta %d on %s" seed
              (Annot.total_ops a) d_ops (Expr.to_string e);
          if Annot.total_cmps a <> d_cmps then
            Alcotest.failf "seed %d: tree cmps %d <> delta %d on %s" seed
              (Annot.total_cmps a) d_cmps (Expr.to_string e);
          if Annot.total_lookups a <> d_lk then
            Alcotest.failf "seed %d: tree lookups %d <> delta %d on %s" seed
              (Annot.total_lookups a) d_lk (Expr.to_string e);
          if a.Annot.out_card <> Pat.Region_set.cardinal r then
            Alcotest.failf "seed %d: out_card mismatch" seed;
          if not (Pat.Region_set.equal r (Eval.eval_plain inst e)) then
            Alcotest.failf "seed %d: annotated result differs" seed
        done);
    Alcotest.test_case "shared annotation marks repeats cached, still sums"
      `Quick
      (fun () ->
        let _, inst, _ = Gen_instance.generate 11 in
        let sub =
          match Pat.Instance.names inst with
          | a :: b :: _ -> Expr.(name a >. name b)
          | _ -> Alcotest.fail "need two names"
        in
        let e =
          Expr.Setop (Expr.Union, sub, Expr.Setop (Expr.Inter, sub, sub))
        in
        let ops0 = Stdx.Stats.(value index_ops) in
        let r, a = Eval.eval_shared_annotated inst e in
        let d_ops = Stdx.Stats.(value index_ops) - ops0 in
        Alcotest.(check int) "tree ops = stats delta" d_ops (Annot.total_ops a);
        let rec cached_count (n : Annot.t) =
          (if n.Annot.cached then 1 else 0)
          + List.fold_left (fun acc c -> acc + cached_count c) 0 n.Annot.children
        in
        Alcotest.(check bool) "has cached nodes" true (cached_count a >= 2);
        let cached_free (n : Annot.t) =
          (not n.Annot.cached)
          || (n.Annot.self_ops = 0 && n.Annot.children = [])
        in
        let rec all_ok n = cached_free n && List.for_all all_ok n.Annot.children in
        Alcotest.(check bool) "cached nodes carry no self cost" true (all_ok a);
        Alcotest.(check bool) "same result as eval" true
          (Pat.Region_set.equal r (Eval.eval_plain inst e)));
    Alcotest.test_case "node labels render the operator alone" `Quick
      (fun () ->
        Alcotest.(check string) "chain" ">d"
          (Expr.node_label Expr.(name "A" >.. name "B"));
        Alcotest.(check string)
          "select" {|sigma["w"]|}
          (Expr.node_label (Expr.exactly "w" (Expr.name "A")));
        Alcotest.(check string) "name" "A" (Expr.node_label (Expr.name "A")));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"eval_shared: same regions, strictly fewer ops on shared chains"
         ~count:100
         QCheck.(make Gen.(int_bound 10000))
         (fun seed ->
           let rig, inst, prng = Gen_instance.generate (1 + (seed mod 997)) in
           let names = Array.of_list (Rig.names rig) in
           let a = Stdx.Prng.choose prng names
           and b = Stdx.Prng.choose prng names in
           let op =
             Stdx.Prng.choose prng
               [|
                 Expr.Including; Expr.Directly_including; Expr.Included;
                 Expr.Directly_included;
               |]
           in
           (* a duplicated two-element chain: the canonical §5.2 shape *)
           let sub = Expr.Chain (Expr.Name a, op, Expr.Name b) in
           let setop =
             Stdx.Prng.choose prng [| Expr.Union; Expr.Inter; Expr.Diff |]
           in
           let e = Expr.Setop (setop, sub, Expr.Setop (Expr.Inter, sub, sub)) in
           let count f =
             let before = Stdx.Stats.(value index_ops) in
             let r = f inst e in
             (r, Stdx.Stats.(value index_ops) - before)
           in
           let plain_r, plain_ops = count Eval.eval in
           let shared_r, shared_ops = count Eval.eval_shared in
           Pat.Region_set.equal plain_r shared_r && shared_ops < plain_ops));
  ]

(* Every evaluator entry point runs the same operator dispatch, with or
   without a memo table and with or without the annotating observer;
   all of them must agree with the brute-force reference on random
   RIG-conforming instances, for every operator (including the prefix
   selection, which [random_general] does not emit — wrapped in here)
   and with repeated subexpressions for the memo to share. *)
let evaluators =
  [
    ("eval_plain", Eval.eval_plain);
    ("eval_shared_plain", Eval.eval_shared_plain);
    ("eval_annotated", fun inst e -> fst (Eval.eval_annotated inst e));
    ( "eval_shared_annotated",
      fun inst e -> fst (Eval.eval_shared_annotated inst e) );
  ]

let eval_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"every evaluator == naive reference (random instances)"
         QCheck.(make Gen.(int_bound 100000))
         (fun seed ->
           let rig, inst, prng = Gen_instance.generate seed in
           let names = Array.of_list (Rig.names rig) in
           let e = random_general prng names 3 in
           let e =
             match Stdx.Prng.int prng 100 with
             | n when n < 20 ->
                 Expr.Select
                   ( Expr.Prefix_word
                       (Stdx.Prng.choose prng [| "a"; "b"; "c" |]),
                     e )
             | n when n < 40 -> Expr.Setop (Expr.Union, e, Expr.Innermost e)
             | _ -> e
           in
           let reference = Support.Naive_eval.eval inst e in
           List.iter
             (fun (label, f) ->
               if not (Pat.Region_set.equal (f inst e) reference) then
                 QCheck.Test.fail_reportf "seed %d: %s differs on %s" seed
                   label (Expr.to_string e))
             evaluators;
           true));
    Alcotest.test_case "unknown region name raises from every evaluator"
      `Quick (fun () ->
        let _, inst, _ = Gen_instance.generate 5 in
        List.iter
          (fun (label, f) ->
            match f inst (Expr.Name "NoSuchRegion") with
            | exception Eval.Unknown_region n ->
                Alcotest.(check string) label "NoSuchRegion" n
            | _ -> Alcotest.failf "%s: expected Unknown_region" label)
          evaluators);
  ]

(* ------------------------------------------------------------------ *)
(* Region forest: the parent-lookup kernels against the test kit's
   scan kernels and the brute-force evaluator, and the refusal of a
   universe that does not nest.

   Draws are random nested extents, as a parse tree yields: every
   extent carries one or two names from a small pool, so names nest in
   themselves and distinct names share extents.  Children may touch
   each other and their parent's ends, and a few are empty (an empty
   extent at a sibling's boundary makes the universe non-laminar).
   With [crossing], two crossing extents and their intersection are
   added, which makes it non-laminar.  A draw is the text and the
   bindings an instance would be created from. *)

module Gen_forest = struct
  let pool = [ "A"; "B"; "C"; "D" ]
  let text_len = 48

  let generate prng ~crossing =
    let acc = ref [] in
    let tag lo hi =
      List.iter
        (fun n -> acc := (n, (lo, hi)) :: !acc)
        (Stdx.Prng.sample prng (Stdx.Prng.int_in prng 1 2) pool)
    in
    let rec children lo hi depth =
      let cursor = ref lo in
      while !cursor < hi && depth < 5 do
        let a = Stdx.Prng.int_in prng !cursor (hi - 1) in
        let b =
          if Stdx.Prng.int prng 12 = 0 then a else Stdx.Prng.int_in prng (a + 1) hi
        in
        if (a, b) <> (lo, hi) && Stdx.Prng.int prng 4 > 0 then begin
          tag a b;
          (* the same extent again, under other names *)
          if Stdx.Prng.int prng 5 = 0 then tag a b;
          children a b (depth + 1)
        end;
        cursor := max (!cursor + 1) (b + Stdx.Prng.int prng 2)
      done
    in
    children 0 text_len 0;
    if crossing then begin
      (* [a,c) and [b,d) cross, and [b,c) lies inside both *)
      let a = Stdx.Prng.int_in prng 0 (text_len - 3) in
      let b = Stdx.Prng.int_in prng (a + 1) (text_len - 2) in
      let c = Stdx.Prng.int_in prng (b + 1) (text_len - 1) in
      let d = Stdx.Prng.int_in prng (c + 1) text_len in
      List.iter
        (fun span -> acc := (Stdx.Prng.choose_list prng pool, span) :: !acc)
        [ (a, c); (b, d); (b, c) ]
    end;
    let text =
      String.init text_len (fun i ->
          if i mod 2 = 1 then ' ' else "abc".[Stdx.Prng.int prng 3])
    in
    ( Pat.Text.of_string text,
      List.map
         (fun n ->
           ( n,
             Pat.Region_set.of_pairs
               (List.filter_map
                  (fun (m, span) -> if m = n then Some span else None)
                  !acc) ))
        pool )

  (* Laminar: the extents including any node form a chain. *)
  let naive_laminar u =
    let u = Pat.Region_set.to_list u in
    List.for_all
      (fun x ->
        let above =
          List.filter
            (fun y -> Pat.Region.strictly_includes y x)
            u
        in
        List.for_all
          (fun y ->
            List.for_all
              (fun z -> Pat.Region.includes y z || Pat.Region.includes z y)
              above)
          above)
      u

  (* The smallest extent strictly including each node. *)
  let naive_parents u =
    let a = Pat.Region_set.to_array u in
    Array.map
      (fun x ->
        let best = ref (-1) in
        Array.iteri
          (fun i y ->
            if
              Pat.Region.strictly_includes y x
              && (!best < 0 || Pat.Region.includes a.(!best) y)
            then best := i)
          a;
        !best)
      a
end

(* (name, forest kernel, scan kernel) *)
let forest_kernels =
  let module Rs = Pat.Region_set in
  let module Scan = Support.Scan in
  [
    ( "⊃d",
      (fun f r s -> Rs.directly_including_in f r s),
      (fun ~context r s -> Scan.directly_including ~context r s) );
    ( "⊃d strict",
      (fun f r s -> Rs.directly_including_strict_in f r s),
      (fun ~context r s -> Scan.directly_including_strict ~context r s) );
    ( "⊂d",
      (fun f r s -> Rs.directly_included_in f r s),
      (fun ~context r s -> Scan.directly_included ~context r s) );
    ( "⊂d strict",
      (fun f r s -> Rs.directly_included_strict_in f r s),
      (fun ~context r s -> Scan.directly_included_strict ~context r s) );
  ]
  @ List.map
      (fun depth ->
        ( Printf.sprintf "at depth %d" depth,
          (fun f r s -> Rs.including_at_depth_in f ~depth r s),
          (fun ~context r s -> Scan.including_at_depth ~context ~depth r s) ))
      [ 0; 1; 2 ]

(* Whether [f] is refused as a forest builder refuses a universe that
   does not nest. *)
let refused f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg ->
      if msg <> "Region_set.forest: regions not nested" then
        QCheck.Test.fail_reportf "refused with %S" msg;
      true

(* The instance of a draw, or [None] when it is refused.  Every forest
   builder must refuse exactly the draws whose universe is not laminar:
   [Instance.create], [forest], [forest_init], and [forest_append] onto
   every laminar prefix of the nodes. *)
let instance_of_draw ~seed ~label (text, bindings) =
  let fail fmt = QCheck.Test.fail_reportf ("seed %d (%s): " ^^ fmt) seed label in
  let universe = Pat.Region_set.merge (List.map snd bindings) in
  let laminar = Gen_forest.naive_laminar universe in
  let nodes = Pat.Region_set.to_array universe in
  let n = Array.length nodes in
  let expect what f =
    if refused f = laminar then
      fail "%s %s %a" what
        (if laminar then "refused" else "accepted")
        Pat.Region_set.pp universe
  in
  expect "forest" (fun () -> Pat.Region_set.forest universe);
  expect "forest_init" (fun () ->
      Pat.Region_set.forest_init n (Array.get nodes));
  for k = 0 to n do
    let prefix = Pat.Region_set.of_array (Array.sub nodes 0 k) in
    if Gen_forest.naive_laminar prefix then
      expect
        (Printf.sprintf "forest_append at %d" k)
        (fun () ->
          Pat.Region_set.forest_append (Pat.Region_set.forest prefix)
            (Pat.Region_set.of_array (Array.sub nodes k (n - k))))
  done;
  match Pat.Instance.create text bindings with
  | inst ->
      if not laminar then fail "Instance.create accepted a crossing universe";
      Some inst
  | exception Invalid_argument _ ->
      if laminar then fail "Instance.create refused a laminar universe";
      None

(* Forest kernel == scan kernel on every pair of the instance's name
   sets and of their random subsets; a witness set outside the universe
   raises [Invalid_argument]; every evaluator == the brute-force
   reference on random expressions. *)
let check_forest_instance ~seed ~label prng inst =
  let forest = Pat.Instance.forest inst in
  let context = Pat.Instance.universe inst in
  let fail fmt = QCheck.Test.fail_reportf ("seed %d (%s): " ^^ fmt) seed label in
  if Pat.Region_set.parents forest <> Gen_forest.naive_parents context then
    fail "parents differ";
  let stray =
    Pat.Region_set.of_pairs
      (List.init 3 (fun _ ->
           let a = Stdx.Prng.int_in prng 0 (Gen_forest.text_len - 1) in
           (a, Stdx.Prng.int_in prng a Gen_forest.text_len)))
  in
  let named =
    List.concat_map
      (fun n ->
        let set = Pat.Instance.find inst n in
        [
          (n, set);
          (n ^ "'", Pat.Region_set.filter (fun _ -> Stdx.Prng.bool prng) set);
        ])
      (Pat.Instance.names inst)
  in
  let stray_raises = not (Pat.Region_set.subset stray context) in
  List.iter
    (fun (kernel, on_forest, scan) ->
      List.iter
        (fun (rn, r) ->
          List.iter
            (fun (sn, s) ->
              if
                not
                  (Pat.Region_set.equal (on_forest forest r s)
                     (scan ~context r s))
              then fail "%s %s %s differs from the scan" rn kernel sn)
            named;
          match on_forest forest r stray with
          | out ->
              if stray_raises && not (Pat.Region_set.is_empty r) then
                fail "%s %s stray did not raise" rn kernel
              else if not (Pat.Region_set.equal out (scan ~context r stray))
              then fail "%s %s stray differs from the scan" rn kernel
          | exception Invalid_argument _ ->
              if not stray_raises then fail "%s %s stray raised" rn kernel)
        named)
    forest_kernels;
  let names = Array.of_list (Pat.Instance.names inst) in
  for _ = 1 to 4 do
    let e = random_general prng names 3 in
    let reference = Support.Naive_eval.eval inst e in
    List.iter
      (fun (ev, f) ->
        if not (Pat.Region_set.equal (f inst e) reference) then
          fail "%s differs on %s" ev (Expr.to_string e))
      evaluators
  done

let forest_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"forest kernels == scan kernels == naive (laminar instances)"
         QCheck.(make Gen.(int_bound 100000))
         (fun seed ->
           let prng = Stdx.Prng.create seed in
           let draw = Gen_forest.generate prng ~crossing:false in
           (match instance_of_draw ~seed ~label:"full" draw with
           | None -> ()
           | Some inst ->
               check_forest_instance ~seed ~label:"full" prng inst;
               (* a scoped alias: the A regions inside some B *)
               let scoped =
                 Pat.Region_set.included_strict (Pat.Instance.find inst "A")
                   (Pat.Instance.find inst "B")
               in
               let aliased = Pat.Instance.add inst "A_in_B" scoped in
               check_forest_instance ~seed ~label:"scoped alias" prng aliased;
               (* partial indexing: the universe of the kept names only *)
               let keep =
                 Stdx.Prng.sample prng
                   (Stdx.Prng.int_in prng 1 (List.length Gen_forest.pool))
                   Gen_forest.pool
               in
               check_forest_instance ~seed ~label:"partial" prng
                 (Pat.Instance.restrict inst keep));
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"non-laminar universes are refused"
         QCheck.(make Gen.(int_bound 100000))
         (fun seed ->
           let prng = Stdx.Prng.create seed in
           let draw = Gen_forest.generate prng ~crossing:true in
           match instance_of_draw ~seed ~label:"crossing" draw with
           | None -> true
           | Some _ ->
               QCheck.Test.fail_reportf "seed %d: crossing draw accepted" seed));
    Alcotest.test_case "generators reach both laminar and non-laminar" `Quick
      (fun () ->
        let laminar crossing seed =
          let text, bindings =
            Gen_forest.generate (Stdx.Prng.create seed) ~crossing
          in
          not (refused (fun () -> Pat.Instance.create text bindings))
        in
        let count crossing =
          List.length (List.filter (laminar crossing) (List.init 300 Fun.id))
        in
        let plain = count false and crossed = count true in
        if plain < 150 || plain = 300 || crossed > 0 then
          Alcotest.failf "laminar: %d/300 plain, %d/300 crossing" plain crossed);
    Alcotest.test_case "witnesses far apart in a large universe agree"
      `Quick (fun () ->
        (* 2000 sibling leaves under one root; witnesses at both ends
           leave the kernels a few indices spread over the universe *)
        let leaves =
          Pat.Region_set.of_pairs (List.init 2000 (fun i -> ((2 * i), (2 * i) + 1)))
        in
        let root = Pat.Region_set.of_pairs [ (0, 4000) ] in
        let context = Pat.Region_set.merge [ root; leaves ] in
        let forest = Pat.Region_set.forest context in
        let ends = Pat.Region_set.of_pairs [ (0, 1); (3998, 3999) ] in
        List.iter
          (fun (kernel, on_forest, scan) ->
            List.iter
              (fun (what, r, s) ->
                if
                  not
                    (Pat.Region_set.equal (on_forest forest r s)
                       (scan ~context r s))
                then Alcotest.failf "%s: %s differs from the scan" kernel what)
              [
                ("universe by ends", context, ends);
                ("ends by universe", ends, context);
                ("leaves by ends", leaves, ends);
                ("root by ends", root, ends);
              ])
          forest_kernels);
    Alcotest.test_case "refusal on touching, empty and crossing extents"
      `Quick (fun () ->
        let laminar pairs =
          not
            (refused (fun () ->
                 Pat.Region_set.forest (Pat.Region_set.of_pairs pairs)))
        in
        Alcotest.(check bool) "nested" true (laminar [ (0, 9); (0, 4); (4, 9) ]);
        Alcotest.(check bool) "empty inside" true (laminar [ (0, 4); (4, 4) ]);
        Alcotest.(check bool)
          "empty between touching" false
          (laminar [ (0, 4); (4, 9); (4, 4) ]);
        Alcotest.(check bool)
          "crossing, nothing inside both" true
          (laminar [ (0, 5); (3, 9); (6, 8) ]);
        Alcotest.(check bool)
          "crossing around a node" false
          (laminar [ (0, 5); (3, 9); (3, 4) ]));
  ]

let suites =
  [
    ("ralg.rig", rig_tests);
    ("ralg.optimizer", optimizer_tests);
    ("ralg.trivial", trivial_tests);
    ("ralg.soundness", soundness_tests);
    ("ralg.eval", eval_tests);
    ("ralg.annot", annot_tests);
    ("ralg.parser", parser_tests);
    ("ralg.forest", forest_tests);
  ]
