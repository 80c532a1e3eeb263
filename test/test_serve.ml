(* The serve subsystem: protocol codec, admission control, the
   streaming driver path, and a live daemon over a Unix-domain
   socket. *)

let or_fail = function Ok x -> x | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* jsonx                                                               *)

(* The byte-at-a-time printer that [Obs.Jsonx] escapes by runs in place
   of, kept verbatim as the reference its output must equal. *)
module Reference_jsonx = struct
  open Obs.Jsonx

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.0f" f)
        else Buffer.add_string buf (Printf.sprintf "%.12g" f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            write buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 128 in
    write buf v;
    Buffer.contents buf
end

(* Likewise the string-building display form [Odb.Value.iter_display]
   replaced. *)
let rec reference_display = function
  | Odb.Value.Str s -> s
  | Tuple fields ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> k ^ "=" ^ reference_display v) fields)
      ^ "}"
  | Set elts -> "{" ^ String.concat "; " (List.map reference_display elts) ^ "}"
  | Variant (_, v) -> reference_display v

let all_bytes = String.init 256 Char.chr

let jsonx_tests =
  let module J = Obs.Jsonx in
  [
    Alcotest.test_case "printer equals the byte-at-a-time reference" `Quick
      (fun () ->
        let strings =
          all_bytes :: ""
          :: "plain ascii, no escapes"
          :: "\"\\\"\\" :: "caf\xc3\xa9 \xe2\x82\xac \xf0\x9d\x84\x9e\x7f\xff"
          :: List.init 256 (fun c -> String.make 1 (Char.chr c))
        in
        List.iter
          (fun s ->
            Alcotest.(check string) "escape" (Reference_jsonx.escape s)
              (J.escape s))
          strings;
        let nums =
          [
            -0.; 0.; 1.; -1.; 42.; 0.5; -0.5; 123.456; 1e-7; 2. ** 53.;
            1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 1e300; Float.nan;
            Float.infinity; Float.neg_infinity;
          ]
        in
        let values =
          List.map (fun f -> J.Num f) nums
          @ List.map (fun s -> J.Str s) strings
          @ [
              J.Null;
              J.Bool false;
              J.Arr (List.map (fun f -> J.Num f) nums);
              J.Obj (List.map (fun s -> (s, J.Arr [ J.Str s; J.Bool true ])) strings);
            ]
        in
        List.iter
          (fun v ->
            Alcotest.(check string) "to_string" (Reference_jsonx.to_string v)
              (J.to_string v))
          values);
    Alcotest.test_case "print/parse round-trip" `Quick (fun () ->
        let v =
          J.Obj
            [
              ("id", J.Num 7.);
              ("op", J.Str "query");
              ("nested", J.Arr [ J.Null; J.Bool true; J.Num 2.5 ]);
              ("text", J.Str "a \"b\"\n\tc\\d");
            ]
        in
        let s = J.to_string v in
        Alcotest.(check bool) "single line" false (String.contains s '\n');
        match J.parse s with
        | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "escapes decode" `Quick (fun () ->
        match J.parse {|"A\n\"\\"|} with
        | Ok (J.Str s) -> Alcotest.(check string) "decoded" "A\n\"\\" s
        | Ok _ -> Alcotest.fail "expected a string"
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "errors carry an offset" `Quick (fun () ->
        (match J.parse "{\"a\": }" with
        | Error e ->
            Alcotest.(check bool) ("offset in: " ^ e) true
              (Astring.String.is_infix ~affix:"at byte" e)
        | Ok _ -> Alcotest.fail "expected parse error");
        match J.parse "1 trailing" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "trailing garbage accepted");
    Alcotest.test_case "integral numbers print without a point" `Quick
      (fun () ->
        Alcotest.(check string) "int" "42" (J.to_string (J.Num 42.));
        Alcotest.(check string) "float" "2.5" (J.to_string (J.Num 2.5)));
  ]

(* Streamed lines: random values (nested, with strings weighted toward
   the bytes JSON escapes and toward multi-byte UTF-8, now and then
   longer than the writer's buffer), random file names and ids
   (0, negatives, magnitudes Jsonx prints as floats), written as row
   and region blocks through one [Protocol.out]. *)
let stream_gen =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, map (String.make 1) char);
        (2, oneofl [ "\""; "\\" ]);
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f));
        (2, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e"; "\xe6\xbc\xa2" ]);
        (3, oneofl [ "a"; "word"; " "; ", "; "=" ]);
      ]
  in
  let short = map (String.concat "") (list_size (int_range 0 10) piece) in
  let str =
    frequency [ (30, short); (1, map (fun s -> String.make 17_000 'y' ^ s) short) ]
  in
  let value =
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           if n = 0 then map Odb.Value.str str
           else
             frequency
               [
                 (3, map Odb.Value.str str);
                 ( 1,
                   map Odb.Value.tuple
                     (list_size (int_range 0 3) (pair short (self (n - 1)))) );
                 (1, map Odb.Value.set (list_size (int_range 0 3) (self (n - 1))));
                 (1, map2 Odb.Value.variant short (self (n - 1)));
               ])
  in
  let big = 1_000_000_000_000_000 in
  let int_ =
    frequency
      [
        ( 1,
          oneofl
            [ 0; -1; 1; big - 1; big; -big; -(big - 1); max_int; min_int ] );
        (1, int);
        (2, int_bound 1_000_000);
      ]
  in
  let block =
    map3
      (fun id file items -> (id, file, items))
      int_ short
      (oneof
         [
           map (fun rows -> `Rows rows) (list_size (int_range 0 8) (list_size (int_range 0 4) value));
           map (fun rs -> `Regions rs) (list_size (int_range 0 8) (pair int_ int_));
         ])
  in
  list_size (int_range 1 6) block

let stream_qcheck =
  QCheck.Test.make ~count:300 ~name:"streamed row and region lines equal render_response"
    (QCheck.make stream_gen)
    (fun blocks ->
      let module P = Serve.Protocol in
      let wire = Buffer.create 4096 in
      let out = P.out (fun b off n -> Buffer.add_subbytes wire b off n) in
      let expected = Buffer.create 4096 in
      let line resp =
        Buffer.add_string expected (P.render_response resp);
        Buffer.add_char expected '\n'
      in
      List.iteri
        (fun i (id, file, items) ->
          (match items with
          | `Rows rows ->
              List.iter
                (fun row ->
                  List.iter
                    (fun v ->
                      if Odb.Value.to_display_string v <> reference_display v
                      then QCheck.Test.fail_report "display form changed")
                    row;
                  P.row_writer out ~id ~file row;
                  line
                    (P.Row
                       { id; file; values = List.map Odb.Value.to_display_string row }))
                rows
          | `Regions rs ->
              List.iter
                (fun (start, stop) ->
                  P.region_writer out ~id ~file ~start ~stop;
                  line (P.Region { id; file; start; stop }))
                rs);
          (* flush after some blocks only, so others share the buffer *)
          if i mod 2 = 0 then P.flush out)
        blocks;
      P.flush out;
      String.equal (Buffer.contents expected) (Buffer.contents wire))

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)

let protocol_tests =
  let module P = Serve.Protocol in
  let roundtrip_request id req =
    match P.parse_request (P.render_request id req) with
    | Ok (id', req') ->
        Alcotest.(check int) "id" id id';
        Alcotest.(check bool) "request round-trips" true (req = req')
    | Error (_, e) -> Alcotest.fail e
  in
  let roundtrip_response resp =
    match P.parse_response (P.render_response resp) with
    | Ok resp' ->
        Alcotest.(check bool) "response round-trips" true (resp = resp')
    | Error e -> Alcotest.fail e
  in
  [
    Alcotest.test_case "request codec round-trips" `Quick (fun () ->
        roundtrip_request 1 P.Ping;
        roundtrip_request 2 P.Stats;
        roundtrip_request 3 P.Shutdown;
        roundtrip_request 4
          (P.Query
             {
               schema = "log";
               text = {|SELECT e FROM Entries e WHERE e.Level = "ERROR"|};
               timeout_ms = Some 250.;
               fail_policy = Some Exec.Driver.Degrade;
               force = true;
               workload = "errors-dashboard";
             });
        roundtrip_request 5
          (P.Rexpr
             {
               schema = "bibtex";
               text = {|sigma["Chang"](Last_Name)|};
               timeout_ms = None;
               fail_policy = None;
               force = false;
               workload = "";
             }));
    Alcotest.test_case "response codec round-trips" `Quick (fun () ->
        roundtrip_response (P.Pong { id = 1 });
        roundtrip_response (P.Bye { id = 9 });
        roundtrip_response
          (P.Row { id = 2; file = "a.log"; values = [ "x"; "y | z" ] });
        roundtrip_response (P.Region { id = 3; file = "b.log"; start = 4; stop = 17 });
        roundtrip_response
          (P.Done
             {
               id = 2;
               rows = 7;
               cached = true;
               degraded = [ ("c.log", "naive-fallback", "injected fault") ];
               trace = "c1-r2";
             });
        roundtrip_response (P.Overloaded { id = 5; active = 8; queued = 16 });
        roundtrip_response (P.Failed { id = 6; message = "boom \"quoted\"" }));
    Alcotest.test_case "parse errors name the problem, keep the id" `Quick
      (fun () ->
        (match P.parse_request "{not json" with
        | Error (0, _) -> ()
        | _ -> Alcotest.fail "expected id-0 parse error");
        (match P.parse_request {|{"id":12,"op":"frobnicate"}|} with
        | Error (12, e) ->
            Alcotest.(check bool) ("mentions op: " ^ e) true
              (Astring.String.is_infix ~affix:"frobnicate" e)
        | _ -> Alcotest.fail "expected id-12 error");
        (match P.parse_request {|{"id":3,"op":"query","schema":"log"}|} with
        | Error (3, e) ->
            Alcotest.(check bool) ("names the member: " ^ e) true
              (Astring.String.is_infix ~affix:"\"q\"" e)
        | _ -> Alcotest.fail "expected missing-member error");
        match
          P.parse_request
            {|{"id":4,"op":"query","schema":"log","q":"x","fail_policy":"yolo"}|}
        with
        | Error (4, _) -> ()
        | _ -> Alcotest.fail "expected bad fail_policy error");
    Alcotest.test_case "reader: framing, overflow, eof" `Quick (fun () ->
        let r, w = Unix.pipe () in
        (* the oversized line exceeds the pipe buffer: write from a
           thread so the writer can block while we read *)
        let writer =
          Thread.create
            (fun () ->
              let write s =
                let b = Bytes.of_string s in
                let n = Bytes.length b in
                let rec go off =
                  if off < n then go (off + Unix.write w b off (n - off))
                in
                go 0
              in
              write "{\"id\":1}\n";
              write (String.make (P.max_line + 10) 'x');
              write "\n{\"id\":2}\n";
              Unix.close w)
            ()
        in
        let reader = P.reader r in
        (match P.read_line reader with
        | `Line l -> Alcotest.(check string) "first line" "{\"id\":1}" l
        | _ -> Alcotest.fail "expected first line");
        (match P.read_line reader with
        | `Overflow -> ()
        | _ -> Alcotest.fail "expected overflow");
        (match P.read_line reader with
        | `Line l ->
            Alcotest.(check string) "line after overflow" "{\"id\":2}" l
        | _ -> Alcotest.fail "connection should survive overflow");
        (match P.read_line reader with
        | `Eof -> ()
        | _ -> Alcotest.fail "expected eof");
        Thread.join writer;
        Unix.close r);
    QCheck_alcotest.to_alcotest stream_qcheck;
  ]

(* ------------------------------------------------------------------ *)
(* admission                                                           *)

let admission_tests =
  [
    Alcotest.test_case "bounded admission rejects past the queue" `Quick
      (fun () ->
        let adm = Serve.Admission.make ~max_active:2 ~max_queue:0 in
        Alcotest.(check bool) "1st" true (Serve.Admission.acquire adm = `Admitted);
        Alcotest.(check bool) "2nd" true (Serve.Admission.acquire adm = `Admitted);
        (match Serve.Admission.acquire adm with
        | `Overloaded (active, queued) ->
            Alcotest.(check int) "active" 2 active;
            Alcotest.(check int) "queued" 0 queued
        | _ -> Alcotest.fail "expected overloaded");
        Serve.Admission.release adm;
        Alcotest.(check bool) "slot freed" true
          (Serve.Admission.acquire adm = `Admitted));
    Alcotest.test_case "queued waiter runs when a slot frees" `Quick (fun () ->
        let adm = Serve.Admission.make ~max_active:1 ~max_queue:1 in
        Alcotest.(check bool) "occupied" true
          (Serve.Admission.acquire adm = `Admitted);
        let got = Atomic.make (`Pending : [ `Pending | `Admitted | `Closed | `Overloaded of int * int ]) in
        let th =
          Thread.create
            (fun () ->
              Atomic.set got
                (Serve.Admission.acquire adm
                  :> [ `Pending | `Admitted | `Closed | `Overloaded of int * int ]))
            ()
        in
        Thread.delay 0.05;
        Alcotest.(check bool) "still waiting" true (Atomic.get got = `Pending);
        Serve.Admission.release adm;
        Thread.join th;
        Alcotest.(check bool) "admitted after release" true
          (Atomic.get got = `Admitted));
    Alcotest.test_case "close drains waiters with `Closed" `Quick (fun () ->
        let adm = Serve.Admission.make ~max_active:1 ~max_queue:4 in
        Alcotest.(check bool) "occupied" true
          (Serve.Admission.acquire adm = `Admitted);
        let got = Atomic.make (`Pending : [ `Pending | `Admitted | `Closed | `Overloaded of int * int ]) in
        let th =
          Thread.create
            (fun () ->
              Atomic.set got
                (Serve.Admission.acquire adm
                  :> [ `Pending | `Admitted | `Closed | `Overloaded of int * int ]))
            ()
        in
        Thread.delay 0.05;
        Serve.Admission.close adm;
        Thread.join th;
        Alcotest.(check bool) "waiter closed" true (Atomic.get got = `Closed);
        Alcotest.(check bool) "new arrivals closed" true
          (Serve.Admission.acquire adm = `Closed));
  ]

(* ------------------------------------------------------------------ *)
(* the streaming driver path                                           *)

let bibtex_corpus sizes =
  let files =
    List.mapi
      (fun i n ->
        ( Printf.sprintf "refs%d.bib" i,
          Pat.Text.of_string
            (Workload.Bibtex_gen.generate
               { (Workload.Bibtex_gen.with_size n) with seed = 1000 + i }) ))
      sizes
  in
  or_fail (Oqf.Corpus.make_full Fschema.Bibtex_schema.view files)

let log_corpus sizes =
  let files =
    List.mapi
      (fun i n ->
        ( Printf.sprintf "node%d.log" i,
          Pat.Text.of_string
            (Workload.Log_gen.generate
               { (Workload.Log_gen.with_size n) with seed = 2000 + i }) ))
      sizes
  in
  or_fail (Oqf.Corpus.make_full Fschema.Log_schema.view files)

let bibtex_queries =
  [
    {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"|};
    {|SELECT r.Key FROM References r|};
    {|SELECT r FROM References r WHERE r.Abstract CONTAINS "derivation"|};
  ]

let log_queries =
  [
    {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|};
    {|SELECT e FROM Entries e WHERE e.Level = "WARN"|};
  ]

let rows_equal =
  List.equal (fun (f1, r1) (f2, r2) ->
      String.equal f1 f2 && List.equal Odb.Value.equal r1 r2)

let run_streaming_collect ?cache ?timeout_ms ?fail_policy ~pool corpus q =
  let blocks = ref [] in
  let result =
    Exec.Driver.run_streaming ?cache ?timeout_ms ?fail_policy ~pool
      ~on_rows:(fun ~file rows -> blocks := (file, rows) :: !blocks)
      corpus q
  in
  (result, List.rev !blocks)

let streaming_matches_parallel corpus q_text jobs =
  let q = Odb.Query_parser.parse_exn q_text in
  let reference = or_fail (Exec.Driver.run_parallel ~jobs corpus q) in
  Exec.Pool.with_pool ~jobs (fun pool ->
      let result, blocks = run_streaming_collect ~pool corpus q in
      let outcome = or_fail result in
      Alcotest.(check bool)
        (Printf.sprintf "rows == run_parallel at jobs=%d: %s" jobs q_text)
        true
        (rows_equal reference.Exec.Driver.rows outcome.Exec.Driver.rows);
      (* the streamed blocks concatenate to exactly the outcome rows,
         in corpus order *)
      let streamed =
        List.concat_map
          (fun (file, rows) -> List.map (fun r -> (file, r)) rows)
          blocks
      in
      Alcotest.(check bool) "streamed blocks == outcome rows" true
        (rows_equal streamed outcome.Exec.Driver.rows);
      List.iter
        (fun (_, rows) ->
          Alcotest.(check bool) "no empty blocks" true (rows <> []))
        blocks)

let streaming_qcheck =
  QCheck.Test.make ~count:20
    ~name:"run_streaming == run_parallel (per-file tasks, any jobs count)"
    QCheck.(
      quad (int_range 1 4) (int_range 3 14) (int_range 1 8)
        (pair bool (int_range 0 9)))
    (fun (n_files, size, jobs, (use_log, q_pick)) ->
      let sizes = List.init n_files (fun i -> size + (i * 3)) in
      let corpus, queries =
        if use_log then (log_corpus sizes, log_queries)
        else (bibtex_corpus sizes, bibtex_queries)
      in
      let q_text = List.nth queries (q_pick mod List.length queries) in
      let q = Odb.Query_parser.parse_exn q_text in
      let reference =
        match Exec.Driver.run_parallel ~jobs corpus q with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "parallel failed: %s" e
      in
      Exec.Pool.with_pool ~jobs (fun pool ->
          let result, _ = run_streaming_collect ~pool corpus q in
          match result with
          | Error e -> QCheck.Test.fail_reportf "streaming failed: %s" e
          | Ok outcome ->
              if
                not
                  (rows_equal reference.Exec.Driver.rows
                     outcome.Exec.Driver.rows)
              then
                QCheck.Test.fail_reportf
                  "rows differ (files=%d size=%d jobs=%d log=%b q=%s)" n_files
                  size jobs use_log q_text;
              true))

let streaming_tests =
  [
    Alcotest.test_case "streamed rows == run_parallel (battery)" `Quick
      (fun () ->
        let corpus = bibtex_corpus [ 12; 4; 8 ] in
        List.iter
          (fun q -> streaming_matches_parallel corpus q 2)
          bibtex_queries;
        let corpus = log_corpus [ 20; 10; 5 ] in
        List.iter (fun q -> streaming_matches_parallel corpus q 3) log_queries);
    QCheck_alcotest.to_alcotest streaming_qcheck;
    Alcotest.test_case "cache hit replays per-file blocks" `Quick (fun () ->
        let corpus = log_corpus [ 15; 10 ] in
        let q =
          Odb.Query_parser.parse_exn
            {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}
        in
        let cache = Exec.Rcache.create () in
        Exec.Pool.with_pool ~jobs:2 (fun pool ->
            let r1, blocks1 = run_streaming_collect ~cache ~pool corpus q in
            let o1 = or_fail r1 in
            Alcotest.(check bool) "first run not cached" false
              o1.Exec.Driver.from_cache;
            let r2, blocks2 = run_streaming_collect ~cache ~pool corpus q in
            let o2 = or_fail r2 in
            Alcotest.(check bool) "second run cached" true
              o2.Exec.Driver.from_cache;
            Alcotest.(check bool) "same rows" true
              (rows_equal o1.Exec.Driver.rows o2.Exec.Driver.rows);
            Alcotest.(check bool) "same blocks replayed" true
              (blocks1 = blocks2)));
    Alcotest.test_case "streaming stats count run_parallel's work" `Quick
      (fun () ->
        (* the outcome's stats feed serve's qlog and Stats: they must
           count every file's phase-1 work, exactly as the batch path
           does for the same corpus and query *)
        let corpus = bibtex_corpus [ 12; 4; 8 ] in
        List.iter
          (fun q_text ->
            let q = Odb.Query_parser.parse_exn q_text in
            let reference =
              (or_fail (Exec.Driver.run_parallel ~jobs:1 corpus q))
                .Exec.Driver.stats
            in
            Exec.Pool.with_pool ~jobs:2 (fun pool ->
                let r, _ = run_streaming_collect ~pool corpus q in
                let stats = (or_fail r).Exec.Driver.stats in
                List.iter
                  (fun (label, field) ->
                    Alcotest.(check int)
                      (Printf.sprintf "%s: %s" label q_text)
                      (field reference) (field stats))
                  [
                    ( "region_comparisons",
                      fun s -> s.Stdx.Stats.region_comparisons );
                    ("index_ops", fun s -> s.Stdx.Stats.index_ops);
                    ("word_lookups", fun s -> s.Stdx.Stats.word_lookups);
                  ]))
          bibtex_queries);
    Alcotest.test_case "deadline expiry fails the request, not the pool"
      `Quick (fun () ->
        let corpus = log_corpus [ 200 ] in
        let q =
          Odb.Query_parser.parse_exn {|SELECT e FROM Entries e|}
        in
        Exec.Pool.with_pool ~jobs:1 (fun pool ->
            (match
               run_streaming_collect ~timeout_ms:0.0001
                 ~fail_policy:Exec.Driver.Fail_fast ~pool corpus q
             with
            | (Ok _, _) -> Alcotest.fail "expected a timeout"
            | (Error e, _) ->
                Alcotest.(check bool)
                  ("timeout surfaced: " ^ e)
                  true
                  (Astring.String.is_infix ~affix:"timed out" e));
            (* the pool survives and serves the next request *)
            let r, _ = run_streaming_collect ~pool corpus q in
            let o = or_fail r in
            Alcotest.(check bool) "pool still works" true
              (List.length o.Exec.Driver.rows > 0)));
  ]

(* ------------------------------------------------------------------ *)
(* the daemon over a live socket                                       *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "oqfserve-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  Unix.mkdir dir 0o755;
  dir

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* a disk catalog of two log files, the daemon's corpus *)
let setup_catalog dir =
  let log1 =
    Workload.Log_gen.generate { (Workload.Log_gen.with_size 20) with seed = 41 }
  in
  let log2 =
    Workload.Log_gen.generate { (Workload.Log_gen.with_size 12) with seed = 42 }
  in
  write_file (Filename.concat dir "a.log") log1;
  write_file (Filename.concat dir "b.log") log2;
  let cat = or_fail (Oqf_catalog.Catalog.init (Filename.concat dir "cat")) in
  let (_ : Oqf_catalog.Catalog.entry) =
    or_fail
      (Oqf_catalog.Catalog.add cat ~schema:"log" (Filename.concat dir "a.log"))
  in
  let (_ : Oqf_catalog.Catalog.entry) =
    or_fail
      (Oqf_catalog.Catalog.add cat ~schema:"log" (Filename.concat dir "b.log"))
  in
  cat

(* [setup_catalog], then a.log's index corrupted in place: same
   length, same mtime, one body byte flipped, so only the checksum on
   load can tell. *)
let setup_corrupt_catalog dir =
  let cat = setup_catalog dir in
  let entry =
    List.find
      (fun (e : Oqf_catalog.Catalog.entry) ->
        e.source = Filename.concat dir "a.log")
      (Oqf_catalog.Catalog.entries cat)
  in
  let path = Filename.concat (Filename.concat dir "cat") entry.index_file in
  let st = Unix.stat path in
  let bytes =
    In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string
  in
  let i = Bytes.length bytes - 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x55));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
  Unix.utimes path st.Unix.st_atime st.Unix.st_mtime;
  cat

(* OQF_SERVE_WATCH=1 replays the whole suite against a daemon running
   its background watcher (CI does this once under injected faults):
   every test must behave identically whether staleness is caught by
   the per-request pass or the watcher. *)
let watch_mode =
  match Sys.getenv_opt "OQF_SERVE_WATCH" with
  | Some ("1" | "true") -> true
  | _ -> false

let with_server ?(max_active = 4) ?(max_queue = 8) ?(jobs = 2) ?http_port
    ?(setup = setup_catalog) f =
  let dir = fresh_dir () in
  let (_ : Oqf_catalog.Catalog.t) = setup dir in
  let config =
    {
      (Serve.Server.default_config
         ~catalog_dir:(Filename.concat dir "cat")
         ~socket_path:(Filename.concat dir "oqf.sock"))
      with
      Serve.Server.max_active;
      max_queue;
      jobs;
      http_port;
      watch = watch_mode;
      watch_interval_ms = 50.;
    }
  in
  let server = or_fail (Serve.Server.start config) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_shutdown server;
      Serve.Server.wait server)
    (fun () -> f config dir)

let connect config =
  or_fail (Serve.Client.connect ~wait_ms:2000. config.Serve.Server.socket_path)

let query_text = {|SELECT e.Service FROM Entries e WHERE e.Level = "ERROR"|}

let query_req ?timeout_ms ?fail_policy ?(force = false) ?(workload = "") text =
  Serve.Protocol.Query
    { schema = "log"; text; timeout_ms; fail_policy; force; workload }

let rexpr_req ?timeout_ms ?fail_policy text =
  Serve.Protocol.Rexpr
    { schema = "log"; text; timeout_ms; fail_policy; force = false;
      workload = "" }

let rexpr_text =
  {|(Entry > sigma["ERROR"](Level)) | (Entry > sigma["WARN"](Level))|}

let collect_rows events =
  List.filter_map
    (function
      | Serve.Protocol.Row { file; values; _ } -> Some (file, values)
      | _ -> None)
    events

let terminal_of conn req = or_fail (Serve.Client.stream conn req ~on_event:ignore)

(* Send one request on a raw socket and return its response lines as
   they crossed the wire, terminal event last. *)
let wire_lines config req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX config.Serve.Server.socket_path);
  let line = Serve.Protocol.render_request 1 req ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line));
  let reader = Serve.Protocol.reader fd in
  let rec go acc =
    match Serve.Protocol.read_line reader with
    | `Line l -> (
        match Serve.Protocol.parse_response l with
        | Ok r when Serve.Client.is_terminal r -> List.rev (l :: acc)
        | Ok _ -> go (l :: acc)
        | Error e -> Alcotest.fail e)
    | `Eof | `Overflow -> Alcotest.fail "response stream cut short"
  in
  go []

(* Two logs whose INFO scans answer in blocks well over the daemon's
   16 KiB write buffer, and a third holding one WARN entry of the
   [bulk] service whose message alone is longer than that buffer. *)
let long_message =
  String.concat " " (List.init 4000 (fun i -> Printf.sprintf "w%d" i))

let setup_big_catalog dir =
  let cat = or_fail (Oqf_catalog.Catalog.init (Filename.concat dir "cat")) in
  List.iter
    (fun (name, text) ->
      let path = Filename.concat dir name in
      write_file path text;
      let (_ : Oqf_catalog.Catalog.entry) =
        or_fail (Oqf_catalog.Catalog.add cat ~schema:"log" path)
      in
      ())
    [
      ( "a.log",
        Workload.Log_gen.generate
          { (Workload.Log_gen.with_size 1200) with seed = 41 } );
      ( "b.log",
        Workload.Log_gen.generate
          { (Workload.Log_gen.with_size 800) with seed = 42 } );
      ( "c.log",
        Printf.sprintf
          "== log ==\n\
           [2026-07-04 00:00:00] level=INFO service=web msg=\"short\"\n\
           [2026-07-04 00:00:01] level=WARN service=bulk msg=\"%s\"\n"
          long_message );
    ];
  cat

let info_scan = {|SELECT e FROM Entries e WHERE e.Level = "INFO"|}

(* The lines the daemon must send for [req]'s rows: the protocol
   rendering of the streaming driver's blocks over the same catalog. *)
let expected_row_lines dir text =
  let cat =
    or_fail (Oqf_catalog.Catalog.open_dir (Filename.concat dir "cat"))
  in
  let corpus = or_fail (Oqf.Corpus.of_catalog cat ~schema:"log") in
  let blocks = ref [] in
  let (_ : Exec.Driver.outcome) =
    or_fail
      (Exec.Pool.with_pool ~jobs:1 (fun pool ->
           Exec.Driver.run_streaming ~pool
             ~on_rows:(fun ~file rows -> blocks := (file, rows) :: !blocks)
             corpus
             (Odb.Query_parser.parse_exn text)))
  in
  List.rev_map
    (fun (file, rows) ->
      ( file,
        List.map
          (fun row ->
            Serve.Protocol.render_response
              (Serve.Protocol.Row
                 {
                   id = 1;
                   file;
                   values = List.map Odb.Value.to_display_string row;
                 }))
          rows ))
    !blocks

let check_done_last what lines n =
  let last = List.nth lines (List.length lines - 1) in
  match Serve.Protocol.parse_response last with
  | Ok (Serve.Protocol.Done { rows; _ }) ->
      Alcotest.(check int) (what ^ ": done counts the rows") n rows
  | _ -> Alcotest.fail (what ^ ": expected done last")

let wire_tests =
  [
    Alcotest.test_case "a scan arrives as the rendered rows, in order"
      `Quick (fun () ->
        with_server ~setup:setup_big_catalog (fun config dir ->
            let blocks = expected_row_lines dir info_scan in
            let big =
              List.filter
                (fun (_, lines) ->
                  List.fold_left
                    (fun n l -> n + String.length l + 1)
                    0 lines
                  > 16 * 1024)
                blocks
            in
            Alcotest.(check bool) "two blocks over the buffer" true
              (List.length big >= 2);
            let expected = List.concat_map snd blocks in
            let lines = wire_lines config (query_req info_scan) in
            Alcotest.(check (list string)) "row lines" expected
              (List.filteri (fun i _ -> i < List.length lines - 1) lines);
            check_done_last "scan" lines (List.length expected)));
    Alcotest.test_case "a row longer than the buffer arrives intact" `Quick
      (fun () ->
        with_server ~setup:setup_big_catalog (fun config dir ->
            let text = {|SELECT e FROM Entries e WHERE e.Service = "bulk"|} in
            let expected = List.concat_map snd (expected_row_lines dir text) in
            (match expected with
            | [ l ] ->
                Alcotest.(check bool) "the row is over 16 KiB" true
                  (String.length l > 16 * 1024)
            | _ -> Alcotest.fail "expected exactly one bulk row");
            (* a small row before it in the buffer, the long one after *)
            let text2 =
              {|SELECT e FROM Entries e
                WHERE e.Service = "bulk" OR e.Service = "web"|}
            in
            List.iter
              (fun text ->
                let expected =
                  List.concat_map snd (expected_row_lines dir text)
                in
                let lines = wire_lines config (query_req text) in
                Alcotest.(check (list string)) "row lines" expected
                  (List.filteri (fun i _ -> i < List.length lines - 1) lines);
                check_done_last text lines (List.length expected))
              [ text; text2 ]));
    Alcotest.test_case "rexpr regions arrive as the rendered regions" `Quick
      (fun () ->
        with_server ~setup:setup_big_catalog (fun config dir ->
            let text = {|Entry > sigma["INFO"](Level)|} in
            let cat =
              or_fail
                (Oqf_catalog.Catalog.open_dir (Filename.concat dir "cat"))
            in
            let corpus = or_fail (Oqf.Corpus.of_catalog cat ~schema:"log") in
            let expr = Ralg.Expr_parser.parse_exn text in
            let expected =
              List.concat_map
                (fun (file, (src : Oqf.Execute.source)) ->
                  List.map
                    (fun (r : Pat.Region.t) ->
                      Serve.Protocol.render_response
                        (Serve.Protocol.Region
                           { id = 1; file; start = r.start; stop = r.stop }))
                    (Pat.Region_set.to_list
                       (Ralg.Eval.eval_shared src.instance expr)))
                (Oqf.Corpus.sources corpus)
            in
            Alcotest.(check bool) "over the buffer" true
              (List.fold_left (fun n l -> n + String.length l + 1) 0 expected
              > 2 * 16 * 1024);
            let lines = wire_lines config (rexpr_req text) in
            Alcotest.(check (list string)) "region lines" expected
              (List.filteri (fun i _ -> i < List.length lines - 1) lines);
            check_done_last "rexpr" lines (List.length expected)));
    Alcotest.test_case "a client closing mid-stream leaves the daemon serving"
      `Quick (fun () ->
        with_server ~setup:setup_big_catalog (fun config _dir ->
            for _ = 1 to 3 do
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX config.Serve.Server.socket_path);
              let line =
                Serve.Protocol.render_request 1 (query_req info_scan) ^ "\n"
              in
              ignore (Unix.write_substring fd line 0 (String.length line));
              (match Serve.Protocol.read_line (Serve.Protocol.reader fd) with
              | `Line _ -> ()
              | _ -> Alcotest.fail "expected a first row");
              Unix.close fd
            done;
            let c = connect config in
            (match terminal_of c (query_req info_scan) with
            | Serve.Protocol.Done { rows; _ } ->
                Alcotest.(check bool) "the next connection answers" true
                  (rows > 0)
            | _ -> Alcotest.fail "expected done");
            Serve.Client.close c));
  ]

let server_tests =
  [
    Alcotest.test_case "ping, query, cached repeat over the socket" `Quick
      (fun () ->
        with_server (fun config _dir ->
            let c = connect config in
            (match terminal_of c Serve.Protocol.Ping with
            | Serve.Protocol.Pong _ -> ()
            | _ -> Alcotest.fail "expected pong");
            let events = or_fail (Serve.Client.request c (query_req query_text)) in
            let rows = collect_rows events in
            (match List.rev events with
            | Serve.Protocol.Done { cached; rows = n; _ } :: _ ->
                Alcotest.(check bool) "first run not cached" false cached;
                Alcotest.(check int) "row count" (List.length rows) n
            | _ -> Alcotest.fail "expected done");
            (* repeat hits the daemon's result cache, byte-identical *)
            let events' =
              or_fail (Serve.Client.request c (query_req query_text))
            in
            (match List.rev events' with
            | Serve.Protocol.Done { cached; _ } :: _ ->
                Alcotest.(check bool) "repeat cached" true cached
            | _ -> Alcotest.fail "expected done");
            Alcotest.(check bool) "same rows from cache" true
              (collect_rows events' = rows);
            Serve.Client.close c));
    Alcotest.test_case "diagnostics for a bad query; connection survives"
      `Quick (fun () ->
        with_server (fun config _dir ->
            let c = connect config in
            (match terminal_of c (query_req "SELECT FROM nonsense") with
            | Serve.Protocol.Diagnostics { diagnostics; _ } ->
                Alcotest.(check bool) "has OQF000" true
                  (List.exists
                     (fun d ->
                       match Obs.Jsonx.member "code" d with
                       | Some (Obs.Jsonx.Str "OQF000") -> true
                       | _ -> false)
                     diagnostics)
            | _ -> Alcotest.fail "expected diagnostics");
            (match terminal_of c Serve.Protocol.Ping with
            | Serve.Protocol.Pong _ -> ()
            | _ -> Alcotest.fail "connection should survive diagnostics");
            Serve.Client.close c));
    Alcotest.test_case "a refused query answers diagnostics; force runs it"
      `Quick (fun () ->
        with_server (fun config _dir ->
            let c = connect config in
            let refused = {|SELECT b.Ts FROM Entries b WHERE b.Ts.Entry = "x"|} in
            (match terminal_of c (query_req refused) with
            | Serve.Protocol.Diagnostics { diagnostics; _ } ->
                Alcotest.(check bool) "has OQF001" true
                  (List.exists
                     (fun d ->
                       Obs.Jsonx.member "code" d
                       = Some (Obs.Jsonx.Str "OQF001"))
                     diagnostics)
            | _ -> Alcotest.fail "expected diagnostics");
            (match terminal_of c Serve.Protocol.Ping with
            | Serve.Protocol.Pong _ -> ()
            | _ -> Alcotest.fail "connection should survive a refusal");
            (match terminal_of c (query_req ~force:true refused) with
            | Serve.Protocol.Done { rows; _ } ->
                Alcotest.(check int) "forced: no rows" 0 rows
            | _ -> Alcotest.fail "expected done");
            Serve.Client.close c));
    Alcotest.test_case "rexpr streams eval_shared regions per file" `Quick
      (fun () ->
        with_server (fun config dir ->
            let cat =
              or_fail
                (Oqf_catalog.Catalog.open_dir (Filename.concat dir "cat"))
            in
            let corpus = or_fail (Oqf.Corpus.of_catalog cat ~schema:"log") in
            let expr = Ralg.Expr_parser.parse_exn rexpr_text in
            let expected =
              List.concat_map
                (fun (file, (src : Oqf.Execute.source)) ->
                  List.map
                    (fun (r : Pat.Region.t) -> (file, r.start, r.stop))
                    (Pat.Region_set.to_list
                       (Ralg.Eval.eval_shared src.instance expr)))
                (Oqf.Corpus.sources corpus)
            in
            Alcotest.(check bool) "reference non-empty" true (expected <> []);
            let c = connect config in
            let events =
              or_fail (Serve.Client.request c (rexpr_req rexpr_text))
            in
            let regions =
              List.filter_map
                (function
                  | Serve.Protocol.Region { file; start; stop; _ } ->
                      Some (file, start, stop)
                  | _ -> None)
                events
            in
            Alcotest.(check (list (triple string int int)))
              "regions in corpus order" expected regions;
            (match List.rev events with
            | Serve.Protocol.Done { rows; _ } :: _ ->
                Alcotest.(check int) "done counts the regions"
                  (List.length expected) rows
            | _ -> Alcotest.fail "expected done");
            Serve.Client.close c));
    Alcotest.test_case "rexpr: unknown name fails; connection survives"
      `Quick (fun () ->
        with_server (fun config _dir ->
            let c = connect config in
            (match terminal_of c (rexpr_req "NoSuchName > Level") with
            | Serve.Protocol.Failed { message; _ } ->
                Alcotest.(check string) "message"
                  "unknown region name NoSuchName" message
            | _ -> Alcotest.fail "expected an error event");
            (match terminal_of c Serve.Protocol.Ping with
            | Serve.Protocol.Pong _ -> ()
            | _ -> Alcotest.fail "connection should survive");
            Serve.Client.close c));
    Alcotest.test_case "rexpr: deadline expiry fails only that request"
      `Quick (fun () ->
        with_server (fun config _dir ->
            let c = connect config in
            (match terminal_of c (rexpr_req ~timeout_ms:0.0001 rexpr_text) with
            | Serve.Protocol.Failed { message; _ } ->
                Alcotest.(check bool)
                  ("timeout surfaced: " ^ message)
                  true
                  (Astring.String.is_infix ~affix:"timed out" message)
            | _ -> Alcotest.fail "expected a timeout");
            (match terminal_of c (rexpr_req rexpr_text) with
            | Serve.Protocol.Done { rows; _ } ->
                Alcotest.(check bool) "next request answers" true (rows > 0)
            | _ -> Alcotest.fail "expected done after the timeout");
            Serve.Client.close c));
    Alcotest.test_case "oversized request line; connection survives" `Quick
      (fun () ->
        with_server (fun config _dir ->
            let c = connect config in
            let fd =
              Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
            in
            Unix.connect fd (Unix.ADDR_UNIX config.Serve.Server.socket_path);
            let big = String.make (Serve.Protocol.max_line + 100) 'y' ^ "\n" in
            ignore (Unix.write_substring fd big 0 (String.length big));
            let ping = {|{"id":1,"op":"ping"}|} ^ "\n" in
            ignore (Unix.write_substring fd ping 0 (String.length ping));
            let reader = Serve.Protocol.reader fd in
            (match Serve.Protocol.read_line reader with
            | `Line l -> (
                match Serve.Protocol.parse_response l with
                | Ok (Serve.Protocol.Failed { message; _ }) ->
                    Alcotest.(check bool) ("names the bound: " ^ message) true
                      (Astring.String.is_infix ~affix:"exceeds" message)
                | _ -> Alcotest.fail "expected error event")
            | _ -> Alcotest.fail "expected a response");
            (match Serve.Protocol.read_line reader with
            | `Line l -> (
                match Serve.Protocol.parse_response l with
                | Ok (Serve.Protocol.Pong _) -> ()
                | _ -> Alcotest.fail "expected pong after oversize")
            | _ -> Alcotest.fail "connection should survive oversize");
            Unix.close fd;
            Serve.Client.close c));
    Alcotest.test_case "concurrent clients get byte-identical rows" `Quick
      (fun () ->
        with_server ~max_active:8 ~max_queue:16 (fun config _dir ->
            let reference =
              let c = connect config in
              let events =
                or_fail (Serve.Client.request c (query_req query_text))
              in
              Serve.Client.close c;
              collect_rows events
            in
            Alcotest.(check bool) "reference non-empty" true (reference <> []);
            let results = Array.make 8 [] in
            let threads =
              List.init 8 (fun i ->
                  Thread.create
                    (fun () ->
                      let c = connect config in
                      let events =
                        or_fail
                          (Serve.Client.request c (query_req query_text))
                      in
                      results.(i) <- collect_rows events;
                      Serve.Client.close c)
                    ())
            in
            List.iter Thread.join threads;
            Array.iteri
              (fun i rows ->
                Alcotest.(check bool)
                  (Printf.sprintf "client %d matches" i)
                  true (rows = reference))
              results));
    Alcotest.test_case "stale catalog entries refresh per request" `Quick
      (fun () ->
        with_server (fun config dir ->
            let c = connect config in
            let count_all () =
              match
                terminal_of c
                  (query_req {|SELECT e FROM Entries e|})
              with
              | Serve.Protocol.Done { rows; _ } -> rows
              | _ -> Alcotest.fail "expected done"
            in
            let before = count_all () in
            (* regrow a.log with the same seed and a larger size: the
               generator appends byte-for-byte, so this is the paper's
               growing-log scenario *)
            write_file
              (Filename.concat dir "a.log")
              (Workload.Log_gen.generate
                 { (Workload.Log_gen.with_size 40) with seed = 41 });
            (* per-request mode ingests on the very next request; the
               background watcher is asynchronous, so give it a few
               polling intervals before asserting *)
            let after =
              if not watch_mode then count_all ()
              else begin
                let deadline = Unix.gettimeofday () +. 5. in
                let rec poll () =
                  let n = count_all () in
                  if n > before || Unix.gettimeofday () > deadline then n
                  else begin
                    Thread.delay 0.02;
                    poll ()
                  end
                in
                poll ()
              end
            in
            Alcotest.(check bool)
              (Printf.sprintf "grew %d -> %d without an explicit refresh"
                 before after)
              true (after > before);
            Serve.Client.close c));
    Alcotest.test_case "an in-place edit with a set-back mtime is ingested"
      `Quick (fun () ->
        with_server (fun config dir ->
            let c = connect config in
            let messages () =
              collect_rows
                (or_fail
                   (Serve.Client.request c
                      (query_req {|SELECT e.Message FROM Entries e|})))
            in
            let before = messages () in
            Test_catalog.edit_in_place_backdated (Filename.concat dir "a.log");
            let deadline = Unix.gettimeofday () +. 5. in
            let rec poll () =
              let rows = messages () in
              if rows <> before || (not watch_mode)
                 || Unix.gettimeofday () > deadline
              then rows
              else begin
                Thread.delay 0.02;
                poll ()
              end
            in
            let after = poll () in
            Alcotest.(check int) "as many rows" (List.length before)
              (List.length after);
            Alcotest.(check bool) "the edited message arrives" true
              (after <> before);
            Serve.Client.close c));
    Alcotest.test_case "an appended log misses the cached result" `Quick
      (fun () ->
        with_server (fun config dir ->
            let c = connect config in
            let all = {|SELECT e FROM Entries e|} in
            let ask () =
              let events = or_fail (Serve.Client.request c (query_req all)) in
              match List.rev events with
              | Serve.Protocol.Done { cached; _ } :: _ ->
                  (cached, collect_rows events)
              | _ -> Alcotest.fail "expected done"
            in
            let _, before = ask () in
            let cached, again = ask () in
            Alcotest.(check bool) "the repeat is cached" true cached;
            Alcotest.(check bool) "same rows" true (again = before);
            (* the generator appends byte-for-byte: 20 more entries *)
            write_file
              (Filename.concat dir "a.log")
              (Workload.Log_gen.generate
                 { (Workload.Log_gen.with_size 40) with seed = 41 });
            let deadline = Unix.gettimeofday () +. 5. in
            let rec poll () =
              let ((_, rows) as answer) = ask () in
              if List.length rows > List.length before
                 || (not watch_mode) || Unix.gettimeofday () > deadline
              then answer
              else begin
                Thread.delay 0.02;
                poll ()
              end
            in
            let cached, after = poll () in
            Alcotest.(check bool) "the refreshed corpus misses the cache"
              false cached;
            let of_a =
              List.filter (fun (f, _) -> Filename.basename f = "a.log")
            in
            Alcotest.(check int) "the 20 appended rows arrive"
              (List.length (of_a before) + 20)
              (List.length (of_a after));
            Alcotest.(check bool) "after the rows already there" true
              (List.filteri
                 (fun i _ -> i < List.length (of_a before))
                 (of_a after)
              = of_a before);
            Serve.Client.close c));
    Alcotest.test_case "daemon survives injected transient faults" `Quick
      (fun () ->
        with_server (fun config _dir ->
            Stdx.Fault.set (Some (or_fail (Stdx.Fault.parse "transient:0.05,seed:42")));
            Fun.protect
              ~finally:(fun () -> Stdx.Fault.set None)
              (fun () ->
                let c = connect config in
                for _ = 1 to 10 do
                  match
                    terminal_of c
                      (query_req ~fail_policy:Exec.Driver.Degrade query_text)
                  with
                  | Serve.Protocol.Done _ -> ()
                  | Serve.Protocol.Failed { message; _ } ->
                      Alcotest.failf "request failed under faults: %s" message
                  | _ -> Alcotest.fail "expected done"
                done;
                (match terminal_of c Serve.Protocol.Ping with
                | Serve.Protocol.Pong _ -> ()
                | _ -> Alcotest.fail "connection dropped under faults");
                Serve.Client.close c)));
    Alcotest.test_case "shutdown op drains and closes" `Quick (fun () ->
        with_server (fun config _dir ->
            let c = connect config in
            (match terminal_of c Serve.Protocol.Shutdown with
            | Serve.Protocol.Bye _ -> ()
            | _ -> Alcotest.fail "expected bye");
            Serve.Client.close c));
    Alcotest.test_case "a file the snapshot cannot load is never dropped silently"
      `Quick (fun () ->
        with_server ~setup:setup_corrupt_catalog (fun config dir ->
            let bad = Filename.concat dir "a.log" in
            let c = connect config in
            (match
               terminal_of c
                 (query_req ~fail_policy:Exec.Driver.Fail_fast query_text)
             with
            | Serve.Protocol.Failed { message; _ } ->
                Alcotest.(check bool) "fail-fast names the file" true
                  (String.starts_with ~prefix:(bad ^ ": ") message)
            | _ -> Alcotest.fail "fail-fast must fail on an unloadable file");
            (match
               terminal_of c
                 (rexpr_req ~fail_policy:Exec.Driver.Fail_fast rexpr_text)
             with
            | Serve.Protocol.Failed { message; _ } ->
                Alcotest.(check bool) "so does a fail-fast rexpr" true
                  (String.starts_with ~prefix:(bad ^ ": ") message)
            | _ -> Alcotest.fail "a fail-fast rexpr must fail too");
            List.iter
              (fun fail_policy ->
                let events =
                  or_fail
                    (Serve.Client.request c (query_req ~fail_policy query_text))
                in
                Alcotest.(check bool) "only the loadable file answers" true
                  (List.for_all
                     (fun (file, _) -> file <> bad)
                     (collect_rows events));
                match List.rev events with
                | Serve.Protocol.Done { degraded; _ } :: _ ->
                    Alcotest.(check (list (pair string string)))
                      "the exclusion is reported" [ (bad, "excluded") ]
                      (List.map (fun (f, a, _) -> (f, a)) degraded)
                | _ -> Alcotest.fail "expected done")
              [ Exec.Driver.Partial; Exec.Driver.Degrade ];
            Serve.Client.close c));
  ]

(* ---------------- telemetry: /metrics, qlog, trace ids ---------------- *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> assert false)

let done_trace events =
  match
    List.find_opt
      (function Serve.Protocol.Done _ -> true | _ -> false)
      events
  with
  | Some (Serve.Protocol.Done { trace; _ }) -> trace
  | _ -> Alcotest.fail "no done event"

(* One POST to the HTTP facade; the raw response, head and body. *)
let http_post ~port body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf
      "POST / HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ()

let admitted_count () =
  Option.fold ~none:0 ~some:Obs.Metrics.value
    (Obs.Metrics.find_counter "serve.admitted")

let telemetry_tests =
  [
    Alcotest.test_case "HTTP POST dispatches like the socket" `Quick (fun () ->
        with_server ~http_port:(free_port ()) (fun config _dir ->
            let port = Option.get config.Serve.Server.http_port in
            let before = admitted_count () in
            let ping =
              http_post ~port
                (Serve.Protocol.render_request 7 Serve.Protocol.Ping)
            in
            Alcotest.(check bool) "ping answers 200" true
              (String.starts_with ~prefix:"HTTP/1.1 200 OK" ping);
            Alcotest.(check bool) "with a pong" true
              (Astring.String.is_infix ~affix:"pong" ping);
            Alcotest.(check int) "ping bypasses admission" before
              (admitted_count ());
            let query =
              http_post ~port
                (Serve.Protocol.render_request 8 (query_req query_text))
            in
            Alcotest.(check bool) "query answers 200" true
              (String.starts_with ~prefix:"HTTP/1.1 200 OK" query);
            Alcotest.(check bool) "with an h-prefixed trace id" true
              (Astring.String.is_infix ~affix:"-r8" query
              && Astring.String.is_infix ~affix:"\"h" query);
            Alcotest.(check int) "a query is admitted once" (before + 1)
              (admitted_count ())));
    Alcotest.test_case "/metrics serves a valid exposition page" `Quick
      (fun () ->
        with_server ~http_port:(free_port ()) (fun config _dir ->
            let port = Option.get config.Serve.Server.http_port in
            (* one real request so the serve series are non-empty *)
            let c = connect config in
            ignore (or_fail (Serve.Client.request c (query_req query_text)));
            Serve.Client.close c;
            let status, body =
              or_fail (Serve.Client.http_get ~port "/metrics")
            in
            Alcotest.(check int) "200" 200 status;
            (match Obs.Expo.validate body with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("invalid exposition: " ^ e));
            List.iter
              (fun needle ->
                Alcotest.(check bool) ("page has " ^ needle) true
                  (Astring.String.is_infix ~affix:needle body))
              [
                "oqf_serve_requests"; "oqf_serve_request_latency_ms";
                "# TYPE";
              ]));
    Alcotest.test_case
      "one trace id correlates the reply, the qlog and the slow log" `Quick
      (fun () ->
        let qpath = Filename.concat (fresh_dir ()) "daemon.qlog" in
        (* slow threshold 0: every record also lands in the slow log *)
        let log = or_fail (Obs.Qlog.open_log ~slow_ms:0.0 qpath) in
        let span_path = qpath ^ ".spans" in
        let span_oc = open_out span_path in
        Obs.Trace.set_sink (Some (Obs.Sink.jsonl span_oc));
        Obs.Qlog.install (Some log);
        let the_trace = ref "" in
        Fun.protect
          ~finally:(fun () ->
            Obs.Qlog.install None;
            Obs.Trace.set_sink None;
            close_out_noerr span_oc;
            Obs.Qlog.close log)
          (fun () ->
            with_server (fun config _dir ->
                let c = connect config in
                let events =
                  or_fail
                    (Serve.Client.request c
                       (query_req ~workload:"errors-dashboard" query_text))
                in
                Serve.Client.close c;
                let trace = done_trace events in
                the_trace := trace;
                Alcotest.(check bool) "reply carries a trace id" true
                  (trace <> "");
                (* the daemon wrote the qlog record before answering,
                   so it is durable and visible already *)
                let records, _ =
                  or_fail
                    (Obs.Qlog.fold qpath ~init:[] ~f:(fun acc r -> r :: acc))
                in
                let r =
                  match
                    List.find_opt
                      (fun r -> r.Obs.Qlog.trace_id = trace)
                      records
                  with
                  | Some r -> r
                  | None -> Alcotest.fail "no qlog record with the reply's id"
                in
                Alcotest.(check string)
                  "workload label" "errors-dashboard" r.Obs.Qlog.workload;
                Alcotest.(check string) "outcome" "ok" r.outcome;
                let slow_traces, _ =
                  or_fail
                    (Obs.Qlog.fold (Obs.Qlog.slow_path log) ~init:[]
                       ~f:(fun acc r -> r.Obs.Qlog.trace_id :: acc))
                in
                Alcotest.(check bool) "slow log shares the id" true
                  (List.mem trace slow_traces));
            (* the span stream tagged serve.request with the same id *)
            Obs.Trace.set_sink None;
            flush span_oc;
            let spans =
              let ic = open_in span_path in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () ->
                  let rec go acc =
                    match input_line ic with
                    | l -> go (acc ^ l ^ "\n")
                    | exception End_of_file -> acc
                  in
                  go "")
            in
            Alcotest.(check bool) "serve.request span present" true
              (Astring.String.is_infix ~affix:"serve.request" spans);
            Alcotest.(check bool) "span attrs carry the same id" true
              (Astring.String.is_infix ~affix:!the_trace spans)));
  ]

let suites =
  [
    ("serve.jsonx", jsonx_tests);
    ("serve.protocol", protocol_tests);
    ("serve.admission", admission_tests);
    ("serve.streaming", streaming_tests);
    ("serve.server", server_tests);
    ("serve.wire", wire_tests);
    ("serve.telemetry", telemetry_tests);
  ]
