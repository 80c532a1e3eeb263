(* Tests for the mini object database: values, paths, query parsing and
   nested-loop evaluation. *)

open Odb

let v_str = Value.str
let value_t = Alcotest.testable Value.pp Value.equal

let sample_ref ~key ~authors ~editors ~year =
  Value.tuple
    [
      ("Key", v_str key);
      ( "Authors",
        Value.set
          (List.map
             (fun (f, l) ->
               Value.variant "Name"
                 (Value.tuple [ ("First_Name", v_str f); ("Last_Name", v_str l) ]))
             authors) );
      ( "Editors",
        Value.set
          (List.map
             (fun (f, l) ->
               Value.variant "Name"
                 (Value.tuple [ ("First_Name", v_str f); ("Last_Name", v_str l) ]))
             editors) );
      ("Year", v_str year);
    ]

let r1 = sample_ref ~key:"A" ~authors:[ ("Gene", "Corliss"); ("Yves", "Chang") ]
    ~editors:[ ("Andreas", "Griewank") ] ~year:"1982"

let r2 = sample_ref ~key:"B" ~authors:[ ("Tova", "Milo") ]
    ~editors:[ ("Yves", "Chang") ] ~year:"1994"

let db_with refs =
  let db = Database.create () in
  Database.insert_all db ~class_name:"References" refs;
  db

let value_tests =
  [
    Alcotest.test_case "set equality ignores order and duplicates" `Quick
      (fun () ->
        let a = Value.set [ v_str "x"; v_str "y"; v_str "x" ] in
        let b = Value.set [ v_str "y"; v_str "x" ] in
        Alcotest.check value_t "equal" a b);
    Alcotest.test_case "tuple field order matters" `Quick (fun () ->
        let a = Value.tuple [ ("a", v_str "1"); ("b", v_str "2") ] in
        let b = Value.tuple [ ("b", v_str "2"); ("a", v_str "1") ] in
        Alcotest.(check bool) "different" false (Value.equal a b));
    Alcotest.test_case "field lookup" `Quick (fun () ->
        Alcotest.(check (option value_t))
          "year" (Some (v_str "1982")) (Value.field r1 "Year");
        Alcotest.(check (option value_t)) "missing" None (Value.field r1 "Nope"));
    Alcotest.test_case "normalize sorts sets recursively" `Quick (fun () ->
        let v =
          Value.tuple
            [ ("s", Value.set [ v_str "b"; v_str "a" ]) ]
        in
        match Value.normalize v with
        | Value.Tuple [ ("s", Value.Set [ Value.Str "a"; Value.Str "b" ]) ] -> ()
        | _ -> Alcotest.fail "not normalized");
  ]

let path_tests =
  [
    Alcotest.test_case "attribute chain through sets" `Quick (fun () ->
        let got =
          Path.navigate r1
            (Path.of_strings [ "Authors"; "Name"; "Last_Name" ])
        in
        Alcotest.(check (list value_t))
          "last names"
          [ v_str "Corliss"; v_str "Chang" ]
          got);
    Alcotest.test_case "variant tag selects set elements" `Quick (fun () ->
        let got = Path.navigate r1 (Path.of_strings [ "Editors"; "Name" ]) in
        Alcotest.(check int) "one editor" 1 (List.length got));
    Alcotest.test_case "star reaches every last name" `Quick (fun () ->
        let got = Path.navigate r1 (Path.of_strings [ "*X"; "Last_Name" ]) in
        Alcotest.(check (list value_t))
          "authors then editors"
          [ v_str "Corliss"; v_str "Chang"; v_str "Griewank" ]
          got);
    Alcotest.test_case "any steps count levels" `Quick (fun () ->
        (* Authors -> Name -> Last_Name is 3 levels below the reference *)
        let got =
          Path.navigate r1 (Path.of_strings [ "X1"; "X2"; "Last_Name" ])
        in
        Alcotest.(check int) "all three last names" 3 (List.length got);
        let too_short =
          Path.navigate r1 (Path.of_strings [ "X1"; "Last_Name" ])
        in
        Alcotest.(check int) "wrong depth" 0 (List.length too_short));
    Alcotest.test_case "of_strings classification" `Quick (fun () ->
        Alcotest.(check bool)
          "star" true
          (Path.of_strings [ "*X" ] = [ Path.Star ]);
        Alcotest.(check bool)
          "any" true
          (Path.of_strings [ "X1"; "X23" ] = [ Path.Any; Path.Any ]);
        Alcotest.(check bool)
          "attr X alone is an attribute" true
          (Path.of_strings [ "X" ] = [ Path.Attr "X" ]);
        Alcotest.(check bool)
          "attr" true
          (Path.of_strings [ "Authors" ] = [ Path.Attr "Authors" ]));
    Alcotest.test_case "self-named set fields are transparent" `Quick
      (fun () ->
        (* SGML-style: a Section's [Section] field holds Section-tagged
           elements; each path step must advance one region level *)
        let leaf h =
          Value.tuple [ ("Heading", v_str h); ("Section", Value.set []) ]
        in
        let mid =
          Value.tuple
            [
              ("Heading", v_str "mid");
              ("Section", Value.set [ Value.variant "Section" (leaf "deep") ]);
            ]
        in
        let root =
          Value.tuple
            [
              ("Heading", v_str "root");
              ("Section", Value.set [ Value.variant "Section" mid ]);
            ]
        in
        Alcotest.(check (list value_t))
          "child heading" [ v_str "mid" ]
          (Path.navigate root (Path.of_strings [ "Section"; "Heading" ]));
        Alcotest.(check (list value_t))
          "grandchild heading" [ v_str "deep" ]
          (Path.navigate root
             (Path.of_strings [ "Section"; "Section"; "Heading" ])));
    Alcotest.test_case "plus step is the attribute closure" `Quick (fun () ->
        let leaf h =
          Value.tuple [ ("Heading", v_str h); ("Section", Value.set []) ]
        in
        let wrap h child =
          Value.tuple
            [
              ("Heading", v_str h);
              ("Section", Value.set [ Value.variant "Section" child ]);
            ]
        in
        let root = wrap "a" (wrap "b" (leaf "c")) in
        Alcotest.(check (list value_t))
          "all strict descendants' headings"
          [ v_str "b"; v_str "c" ]
          (Path.navigate root (Path.of_strings [ "Section+"; "Heading" ]));
        (* unlike *X, a+ does not include the start value itself *)
        Alcotest.(check int)
          "two sections" 2
          (List.length (Path.navigate root (Path.of_strings [ "Section+" ]))));
    Alcotest.test_case "of_strings parses plus components" `Quick (fun () ->
        Alcotest.(check bool)
          "plus" true
          (Path.of_strings [ "Section+" ] = [ Path.Plus "Section" ]);
        Alcotest.(check string)
          "round trip" "Section+.Heading"
          (Path.to_string (Path.of_strings [ "Section+"; "Heading" ])));
    Alcotest.test_case "missing attribute yields nothing" `Quick (fun () ->
        Alcotest.(check int) "none" 0
          (List.length (Path.navigate r1 (Path.of_strings [ "Nope"; "X" ]))));
  ]

let parser_tests =
  [
    Alcotest.test_case "parses the paper's first query" `Quick (fun () ->
        let q =
          Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|}
        in
        Alcotest.(check int) "one binding" 1 (List.length q.Query.from_);
        match q.Query.where with
        | Query.Eq_const (rp, "Chang") ->
            Alcotest.(check string) "var" "r" rp.Query.var
        | _ -> Alcotest.fail "expected an equality");
    Alcotest.test_case "keywords are case-insensitive" `Quick (fun () ->
        let q =
          Query_parser.parse_exn
            {|select r from References r where r.Year = "1982"|}
        in
        Alcotest.(check int) "selects" 1 (List.length q.Query.select));
    Alcotest.test_case "star and any variables" `Quick (fun () ->
        let q =
          Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|}
        in
        match q.Query.where with
        | Query.Eq_const (rp, _) ->
            Alcotest.(check bool)
              "star step" true
              (rp.Query.path = [ Path.Star; Path.Attr "Last_Name" ])
        | _ -> Alcotest.fail "expected an equality");
    Alcotest.test_case "join query with two bindings" `Quick (fun () ->
        let q =
          Query_parser.parse_exn
            {|SELECT r, s FROM References r, References s
              WHERE r.Editors.Name = s.Authors.Name|}
        in
        Alcotest.(check int) "two" 2 (List.length q.Query.from_);
        match q.Query.where with
        | Query.Eq_paths (a, b) ->
            Alcotest.(check string) "left var" "r" a.Query.var;
            Alcotest.(check string) "right var" "s" b.Query.var
        | _ -> Alcotest.fail "expected a path equality");
    Alcotest.test_case "boolean precedence: AND binds tighter" `Quick
      (fun () ->
        let q =
          Query_parser.parse_exn
            {|SELECT r FROM References r
              WHERE r.Year = "1982" OR r.Year = "1994" AND r.Key = "B"|}
        in
        match q.Query.where with
        | Query.Or (_, Query.And (_, _)) -> ()
        | _ -> Alcotest.fail "wrong precedence");
    Alcotest.test_case "unbound variable rejected" `Quick (fun () ->
        match
          Query_parser.parse {|SELECT r FROM References s WHERE s.K = "x"|}
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "should be rejected");
    Alcotest.test_case "STARTS WITH predicate" `Quick (fun () ->
        let q =
          Query_parser.parse_exn
            {|SELECT r FROM References r WHERE r.Key STARTS WITH "Ref00"|}
        in
        match q.Query.where with
        | Query.Starts_with (rp, "Ref00") ->
            Alcotest.(check bool)
              "path" true
              (rp.Query.path = [ Path.Attr "Key" ])
        | _ -> Alcotest.fail "expected STARTS WITH");
    Alcotest.test_case "CONTAINS predicate" `Quick (fun () ->
        let q =
          Query_parser.parse_exn
            {|SELECT e FROM Entries e WHERE e.Message CONTAINS "timeout"|}
        in
        match q.Query.where with
        | Query.Contains (_, "timeout") -> ()
        | _ -> Alcotest.fail "expected CONTAINS");
  ]

let eval_tests =
  [
    Alcotest.test_case "paper query: author named Chang" `Quick (fun () ->
        let db = db_with [ r1; r2 ] in
        let rows =
          Query_eval.eval db
            (Query_parser.parse_exn
               {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|})
        in
        Alcotest.(check int) "only r1" 1 (List.length rows));
    Alcotest.test_case "star path finds editors too" `Quick (fun () ->
        let db = db_with [ r1; r2 ] in
        let rows =
          Query_eval.eval db
            (Query_parser.parse_exn
               {|SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"|})
        in
        Alcotest.(check int) "both" 2 (List.length rows));
    Alcotest.test_case "projection select" `Quick (fun () ->
        let db = db_with [ r1; r2 ] in
        let rows =
          Query_eval.eval db
            (Query_parser.parse_exn
               {|SELECT r.Authors.Name.Last_Name FROM References r|})
        in
        Alcotest.(check int) "three distinct last names" 3 (List.length rows));
    Alcotest.test_case "self join: editor who wrote a paper" `Quick (fun () ->
        let db = db_with [ r1; r2 ] in
        let rows =
          Query_eval.eval db
            (Query_parser.parse_exn
               {|SELECT r FROM References r, References s
                 WHERE r.Editors.Name.Last_Name = s.Authors.Name.Last_Name|})
        in
        (* r1's editor Griewank wrote nothing; r2's editor Chang authored r1 *)
        Alcotest.(check int) "r2 qualifies" 1 (List.length rows);
        Alcotest.(check (list value_t)) "row" [ Value.normalize r2 ]
          (List.hd rows));
    Alcotest.test_case "NOT filters" `Quick (fun () ->
        let db = db_with [ r1; r2 ] in
        let rows =
          Query_eval.eval db
            (Query_parser.parse_exn
               {|SELECT r FROM References r WHERE NOT r.Year = "1982"|})
        in
        Alcotest.(check int) "only r2" 1 (List.length rows));
    Alcotest.test_case "AND / OR combinations" `Quick (fun () ->
        let db = db_with [ r1; r2 ] in
        let count q = List.length (Query_eval.eval db (Query_parser.parse_exn q)) in
        Alcotest.(check int) "or" 2
          (count
             {|SELECT r FROM References r WHERE r.Year = "1982" OR r.Year = "1994"|});
        Alcotest.(check int) "and" 1
          (count
             {|SELECT r FROM References r
               WHERE r.Year = "1982" AND r.Authors.Name.Last_Name = "Chang"|});
        Alcotest.(check int) "contradiction" 0
          (count
             {|SELECT r FROM References r
               WHERE r.Year = "1982" AND r.Year = "1994"|}));
    Alcotest.test_case "CONTAINS matches whole words" `Quick (fun () ->
        let db = Database.create () in
        Database.insert db ~class_name:"Docs"
          (Value.tuple [ ("Body", v_str "the catalog is flat") ]);
        let count q = List.length (Query_eval.eval db (Query_parser.parse_exn q)) in
        Alcotest.(check int) "catalog found" 1
          (count {|SELECT d FROM Docs d WHERE d.Body CONTAINS "catalog"|});
        Alcotest.(check int) "cat is not a word here" 0
          (count {|SELECT d FROM Docs d WHERE d.Body CONTAINS "cat"|}));
    Alcotest.test_case "multi-item select produces row combinations" `Quick
      (fun () ->
        let db = db_with [ r1 ] in
        let rows =
          Query_eval.eval db
            (Query_parser.parse_exn
               {|SELECT r.Key, r.Authors.Name.Last_Name FROM References r|})
        in
        Alcotest.(check int) "two rows" 2 (List.length rows);
        List.iter
          (fun row -> Alcotest.(check int) "two columns" 2 (List.length row))
          rows);
    Alcotest.test_case "empty extent yields no rows" `Quick (fun () ->
        let db = Database.create () in
        let rows =
          Query_eval.eval db
            (Query_parser.parse_exn {|SELECT r FROM References r|})
        in
        Alcotest.(check int) "none" 0 (List.length rows));
  ]

(* A random value over a small alphabet, so that sets hold duplicates
   and their elements come unsorted. *)
let rec random_value prng depth =
  let pick a = Stdx.Prng.choose prng a in
  match if depth = 0 then 0 else Stdx.Prng.int prng 4 with
  | 0 -> v_str (pick [| "a"; "b"; "c"; "" |])
  | 1 ->
      Value.tuple
        (List.init (Stdx.Prng.int prng 3) (fun _ ->
             (pick [| "k"; "l" |], random_value prng (depth - 1))))
  | 2 ->
      Value.set
        (List.init (Stdx.Prng.int prng 5) (fun _ -> random_value prng (depth - 1)))
  | _ -> Value.variant (pick [| "A"; "B" |]) (random_value prng (depth - 1))

(* Normalization as a plain copy: every set sorted and deduplicated. *)
let rec copying_normalize = function
  | Value.Str _ as v -> v
  | Value.Tuple fields ->
      Value.Tuple (List.map (fun (k, v) -> (k, copying_normalize v)) fields)
  | Value.Variant (tag, v) -> Value.Variant (tag, copying_normalize v)
  | Value.Set elts ->
      Value.Set
        (List.sort_uniq Value.compare_normalized (List.map copying_normalize elts))

let dedup_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"eval's rows equal a sort of the normalized rows with Value.compare"
         QCheck.(make Gen.(int_bound 1_000_000))
         (fun seed ->
           let prng = Stdx.Prng.create seed in
           let objects =
             List.init (Stdx.Prng.int prng 12) (fun _ ->
                 Value.tuple
                   [ ("a", random_value prng 3); ("b", random_value prng 3) ])
           in
           let db = Database.create () in
           Database.insert_all db ~class_name:"C" objects;
           let attr name obj = Path.navigate obj (Path.of_strings [ name ]) in
           let want rows =
             List.sort_uniq (List.compare Value.compare)
               (List.map (List.map copying_normalize) rows)
           in
           let check q rows =
             if Query_eval.eval db (Query_parser.parse_exn q) <> want rows then
               QCheck.Test.fail_reportf "seed %d: %s gives other rows" seed q
           in
           check "SELECT x FROM C x" (List.map (fun o -> [ o ]) objects);
           check "SELECT x.a, x.b FROM C x"
             (List.concat_map
                (fun o ->
                  List.concat_map
                    (fun a -> List.map (fun b -> [ a; b ]) (attr "b" o))
                    (attr "a" o))
                objects);
           check "SELECT x FROM C x WHERE x.a = x.b"
             (List.filter_map
                (fun o ->
                  if
                    List.exists
                      (fun a -> List.exists (Value.equal a) (attr "b" o))
                      (attr "a" o)
                  then Some [ o ]
                  else None)
                objects);
           true));
  ]

let database_tests =
  [
    Alcotest.test_case "insert and extent" `Quick (fun () ->
        let db = Database.create () in
        Database.insert db ~class_name:"C" (v_str "a");
        Database.insert db ~class_name:"C" (v_str "b");
        Alcotest.(check int) "two" 2 (Database.cardinal db "C");
        Alcotest.(check (list value_t))
          "insertion order" [ v_str "a"; v_str "b" ]
          (Database.extent db "C"));
    Alcotest.test_case "objects counted in stats" `Quick (fun () ->
        let before = Stdx.Stats.(value objects_built) in
        let db = Database.create () in
        Database.insert db ~class_name:"C" (v_str "a");
        Alcotest.(check int) "one more" (before + 1)
          Stdx.Stats.(value objects_built));
    Alcotest.test_case "clear resets" `Quick (fun () ->
        let db = Database.create () in
        Database.insert db ~class_name:"C" (v_str "a");
        Database.clear db;
        Alcotest.(check int) "empty" 0 (Database.total_objects db));
  ]

let suites =
  [
    ("odb.value", value_tests);
    ("odb.path", path_tests);
    ("odb.query_parser", parser_tests);
    ("odb.query_eval", eval_tests);
    ("odb.dedup", dedup_tests);
    ("odb.database", database_tests);
  ]
