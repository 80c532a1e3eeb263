(* The observability layer: metrics registry, span tracer, sinks. *)

let with_memory_sink f =
  let sink, roots = Obs.Sink.memory () in
  Obs.Trace.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_sink None)
    (fun () ->
      f ();
      roots ())

let metrics_tests =
  [
    Alcotest.test_case "counter is create-or-get by name" `Quick (fun () ->
        let a = Obs.Metrics.counter "test.m1" in
        let b = Obs.Metrics.counter "test.m1" in
        let v0 = Obs.Metrics.value a in
        Obs.Metrics.incr a;
        Obs.Metrics.add_to b 4;
        Alcotest.(check int) "same cell" (v0 + 5) (Obs.Metrics.value a);
        Alcotest.(check int) "named read" (v0 + 5)
          (Obs.Metrics.value (Obs.Metrics.counter "test.m1")));
    Alcotest.test_case "find_counter does not create" `Quick (fun () ->
        Alcotest.(check bool)
          "absent" true
          (Obs.Metrics.find_counter "test.never_created" = None);
        let (_ : Obs.Metrics.counter) = Obs.Metrics.counter "test.created" in
        Alcotest.(check bool)
          "present" true
          (Obs.Metrics.find_counter "test.created" <> None));
    Alcotest.test_case "counters listing includes registered names" `Quick
      (fun () ->
        let c = Obs.Metrics.counter "test.listing" in
        Obs.Metrics.set c 42;
        Alcotest.(check bool)
          "listed" true
          (List.mem ("test.listing", 42) (Obs.Metrics.counters ())));
    Alcotest.test_case "histogram nearest-rank percentiles" `Quick (fun () ->
        let h = Obs.Metrics.histogram "test.h1" in
        (* observe 1..100 shuffled deterministically *)
        let prng = Stdx.Prng.create 99 in
        let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
        for i = 99 downto 1 do
          let j = Stdx.Prng.int prng (i + 1) in
          let t = xs.(i) in
          xs.(i) <- xs.(j);
          xs.(j) <- t
        done;
        Array.iter (Obs.Metrics.observe h) xs;
        match Obs.Metrics.summarize h with
        | None -> Alcotest.fail "expected a summary"
        | Some s ->
            Alcotest.(check int) "count" 100 s.Obs.Metrics.count;
            Alcotest.(check (float 0.001)) "sum" 5050.0 s.Obs.Metrics.sum;
            Alcotest.(check (float 0.001)) "p50" 50.0 s.Obs.Metrics.p50;
            Alcotest.(check (float 0.001)) "p95" 95.0 s.Obs.Metrics.p95;
            Alcotest.(check (float 0.001)) "p99" 99.0 s.Obs.Metrics.p99;
            Alcotest.(check (float 0.001)) "max" 100.0 s.Obs.Metrics.max);
    Alcotest.test_case "a long series keeps exact totals and a sampled median"
      `Quick (fun () ->
        let h = Obs.Metrics.histogram "test.long" in
        (* 1..n in a scrambled order: [i * 7919 mod n] is a permutation *)
        let n = 100_000 in
        for i = 0 to n - 1 do
          Obs.Metrics.observe h (float_of_int ((i * 7919 mod n) + 1))
        done;
        match Obs.Metrics.summarize h with
        | None -> Alcotest.fail "expected a summary"
        | Some s ->
            Alcotest.(check int) "count" n s.Obs.Metrics.count;
            Alcotest.(check (float 0.001)) "sum"
              (float_of_int (n * (n + 1) / 2))
              s.Obs.Metrics.sum;
            Alcotest.(check (float 0.001)) "max" (float_of_int n)
              s.Obs.Metrics.max;
            Alcotest.(check bool) "p50 near the median" true
              (Float.abs (s.Obs.Metrics.p50 -. float_of_int (n / 2))
              < 0.05 *. float_of_int n);
            Alcotest.(check bool) "p99 near the 99th percentile" true
              (Float.abs (s.Obs.Metrics.p99 -. (0.99 *. float_of_int n))
              < 0.01 *. float_of_int n));
    Alcotest.test_case "empty histogram has no summary" `Quick (fun () ->
        Alcotest.(check bool)
          "none" true
          (Obs.Metrics.summarize (Obs.Metrics.histogram "test.empty") = None));
  ]

let trace_tests =
  [
    Alcotest.test_case "disabled tracing is inert" `Quick (fun () ->
        Obs.Trace.set_sink None;
        Alcotest.(check bool) "disabled" false (Obs.Trace.enabled ());
        (* no sink: spans are the shared null handle, nothing blows up *)
        let s = Obs.Trace.begin_span "nothing" in
        Obs.Trace.instant "nothing.instant";
        Obs.Trace.end_span s;
        Alcotest.(check bool)
          "with_span passes through" true
          (Obs.Trace.with_span "nothing" (fun () -> true)));
    Alcotest.test_case "span nesting reconstructs as a tree" `Quick (fun () ->
        let roots =
          with_memory_sink (fun () ->
              Obs.Trace.with_span "root" (fun () ->
                  Obs.Trace.with_span "child_a" (fun () ->
                      Obs.Trace.instant "tick");
                  Obs.Trace.with_span "child_b" ignore))
        in
        match roots with
        | [ root ] ->
            Alcotest.(check string) "root" "root" root.Obs.Sink.name;
            Alcotest.(check (list string))
              "children in opening order" [ "child_a"; "child_b" ]
              (List.map (fun n -> n.Obs.Sink.name) root.Obs.Sink.children);
            let a = List.hd root.Obs.Sink.children in
            Alcotest.(check (list string))
              "instant recorded" [ "tick" ]
              (List.map (fun (n, _, _) -> n) a.Obs.Sink.events)
        | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
    Alcotest.test_case "end_span attrs land on the span" `Quick (fun () ->
        let roots =
          with_memory_sink (fun () ->
              let s = Obs.Trace.begin_span "work" in
              Obs.Trace.end_span s ~attrs:[ ("out", Obs.Trace.Int 7) ])
        in
        match roots with
        | [ n ] ->
            Alcotest.(check bool)
              "attr present" true
              (List.mem_assoc "out" n.Obs.Sink.attrs)
        | _ -> Alcotest.fail "expected one root");
    Alcotest.test_case "unclosed descendants are closed with the parent"
      `Quick
      (fun () ->
        let roots =
          with_memory_sink (fun () ->
              let outer = Obs.Trace.begin_span "outer" in
              let (_ : Obs.Trace.span) = Obs.Trace.begin_span "leaked" in
              Obs.Trace.end_span outer)
        in
        match roots with
        | [ outer ] ->
            Alcotest.(check (list string))
              "leaked child present" [ "leaked" ]
              (List.map (fun n -> n.Obs.Sink.name) outer.Obs.Sink.children)
        | _ -> Alcotest.fail "expected one root");
    Alcotest.test_case "with_span is exception-safe" `Quick (fun () ->
        let roots =
          with_memory_sink (fun () ->
              try
                Obs.Trace.with_span "boom" (fun () -> failwith "inner")
              with Failure _ -> ())
        in
        Alcotest.(check (list string))
          "span closed" [ "boom" ]
          (List.map (fun n -> n.Obs.Sink.name) roots));
    Alcotest.test_case "pretty sink renders the forest on flush" `Quick
      (fun () ->
        let buf = Buffer.create 256 in
        let ppf = Format.formatter_of_buffer buf in
        Obs.Trace.set_sink (Some (Obs.Sink.pretty ppf));
        Obs.Trace.with_span "alpha" (fun () ->
            Obs.Trace.with_span "beta" ignore);
        Obs.Trace.set_sink None;
        Format.pp_print_flush ppf ();
        let out = Buffer.contents buf in
        Alcotest.(check bool)
          "mentions both spans" true
          (let has needle =
             let nh = String.length out and nn = String.length needle in
             let rec go i =
               if i + nn > nh then false
               else String.sub out i nn = needle || go (i + 1)
             in
             go 0
           in
           has "alpha" && has "beta"));
  ]

let sink_file_tests =
  let read_all path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let trace_to sink_of_oc path =
    let oc = open_out path in
    Obs.Trace.set_sink (Some (sink_of_oc oc));
    Obs.Trace.with_span "query" (fun () ->
        Obs.Trace.instant "cache.hit" ~attrs:[ ("key", Obs.Trace.Str "k\"1") ];
        Obs.Trace.with_span "eval" ignore);
    Obs.Trace.set_sink None;
    close_out oc;
    read_all path
  in
  [
    Alcotest.test_case "jsonl writes one object per event line" `Quick
      (fun () ->
        let path = Filename.temp_file "obs_test" ".jsonl" in
        let out = trace_to Obs.Sink.jsonl path in
        Sys.remove path;
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
        in
        (* begin(query) instant(cache.hit) begin(eval) end(eval) end(query) *)
        Alcotest.(check int) "five events" 5 (List.length lines);
        List.iter
          (fun l ->
            Alcotest.(check bool) "looks like an object" true
              (String.length l > 1 && l.[0] = '{'))
          lines);
    Alcotest.test_case "chrome trace is a well-bracketed array" `Quick
      (fun () ->
        let path = Filename.temp_file "obs_test" ".json" in
        let out = trace_to Obs.Sink.chrome path in
        Sys.remove path;
        let trimmed = String.trim out in
        Alcotest.(check bool) "starts with [" true (trimmed.[0] = '[');
        Alcotest.(check bool)
          "ends with ]" true
          (trimmed.[String.length trimmed - 1] = ']');
        let count needle =
          let nh = String.length out and nn = String.length needle in
          let rec go i acc =
            if i + nn > nh then acc
            else
              go (i + 1) (if String.sub out i nn = needle then acc + 1 else acc)
          in
          go 0 0
        in
        Alcotest.(check int) "two begins" 2 (count {|"ph":"B"|});
        Alcotest.(check int) "two ends" 2 (count {|"ph":"E"|});
        Alcotest.(check int) "one instant" 1 (count {|"ph":"i"|});
        (* the quote inside the attr value must have been escaped *)
        Alcotest.(check bool) "escaped quote" true (count {|k\"1|} = 1));
  ]

(* ---------------- label hygiene ---------------- *)

let label_tests =
  [
    Alcotest.test_case "hostile value round-trips through render/parse"
      `Quick (fun () ->
        let hostile = "a\"b,c\nd\\e" in
        let name = Obs.Label.render "m" [ ("workload", hostile) ] in
        let base, labels = Obs.Label.parse name in
        Alcotest.(check string) "base" "m" base;
        (* the newline was sanitized away; quote/comma/backslash kept *)
        Alcotest.(check (list (pair string string)))
          "labels" [ ("workload", "a\"b,c_d\\e") ] labels);
    Alcotest.test_case "keys are flattened to identifiers" `Quick (fun () ->
        let name = Obs.Label.render "m" [ ("bad key!", "v") ] in
        let _, labels = Obs.Label.parse name in
        Alcotest.(check (list (pair string string)))
          "key sanitized" [ ("bad_key_", "v") ] labels);
    Alcotest.test_case "label order does not change the rendered name"
      `Quick (fun () ->
        Alcotest.(check string)
          "sorted"
          (Obs.Label.render "m" [ ("a", "1"); ("b", "2") ])
          (Obs.Label.render "m" [ ("b", "2"); ("a", "1") ]));
    Alcotest.test_case "legacy unquoted form still parses" `Quick (fun () ->
        let base, labels =
          Obs.Label.parse "query.latency_ms{workload=bibtex}"
        in
        Alcotest.(check string) "base" "query.latency_ms" base;
        Alcotest.(check (list (pair string string)))
          "labels" [ ("workload", "bibtex") ] labels);
    Alcotest.test_case "empty value survives as a placeholder" `Quick
      (fun () ->
        Alcotest.(check string) "placeholder" "_" (Obs.Label.sanitize ""));
  ]

(* ---------------- the durable query log ---------------- *)

let tmpdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "oqf_qlog_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Sys.mkdir d 0o700 with Sys_error _ -> ());
    d

let mk_record ?(trace = "t1") ?(workload = "w") ?(ms = 1.0) ?(cached = false)
    ?(outcome = "ok") ?error ?(events = []) ?(retries = 0) ?(faults = 0) query
    =
  Obs.Qlog.make
    ~ctx:{ Obs.Qlog.trace_id = trace; workload }
    ~workload_default:"default" ~schema:"log" ~kind:"query" ~query
    ~latency_ms:ms ~rows:3 ~cached ~outcome ?error ~events ~retries
    ~faults ()

let qlog_tests =
  [
    Alcotest.test_case "record round-trips through its JSON line" `Quick
      (fun () ->
        let r =
          mk_record ~trace:"q1-2-3" ~ms:12.5 ~cached:true ~outcome:"degraded"
            ~error:"partial \"quoted\""
            ~events:[ ("naive-fallback", "a.log") ]
            ~retries:2 ~faults:1
            {|SELECT e FROM Entries e WHERE e.Level = "ERROR"|}
        in
        match Obs.Qlog.record_of_json (Obs.Qlog.record_to_json r) with
        | None -> Alcotest.fail "did not parse back"
        | Some r' ->
            Alcotest.(check string) "trace" r.trace_id r'.Obs.Qlog.trace_id;
            Alcotest.(check string) "query" r.query r'.query;
            Alcotest.(check string) "outcome" r.outcome r'.outcome;
            Alcotest.(check (option string)) "error" r.error r'.error;
            Alcotest.(check int) "retries" r.retries r'.retries;
            Alcotest.(check int) "faults" r.faults r'.faults;
            Alcotest.(check (list (pair string string)))
              "events" r.events r'.events);
    Alcotest.test_case "append + fold round-trips; torn tail is skipped"
      `Quick (fun () ->
        let path = Filename.concat (tmpdir ()) "q.log" in
        let log = Result.get_ok (Obs.Qlog.open_log path) in
        Obs.Qlog.append log (mk_record ~trace:"a" "SELECT 1");
        Obs.Qlog.append log (mk_record ~trace:"b" "SELECT 2");
        Obs.Qlog.close log;
        (* simulate a crash mid-write: a torn, unterminated final line *)
        let oc =
          open_out_gen [ Open_append; Open_wronly ] 0o644 path
        in
        output_string oc {|{"ts":12,"trace":"torn|};
        close_out oc;
        let traces, skipped =
          Result.get_ok
            (Obs.Qlog.fold path ~init:[] ~f:(fun acc r ->
                 r.Obs.Qlog.trace_id :: acc))
        in
        Alcotest.(check (list string)) "records survive" [ "b"; "a" ] traces;
        Alcotest.(check int) "torn tail counted, not fatal" 1 skipped);
    Alcotest.test_case "size-based rotation keeps bounded segments" `Quick
      (fun () ->
        let path = Filename.concat (tmpdir ()) "q.log" in
        let log =
          Result.get_ok (Obs.Qlog.open_log ~max_bytes:4096 ~keep:2 path)
        in
        for i = 1 to 60 do
          Obs.Qlog.append log
            (mk_record ~trace:(Printf.sprintf "t%d" i)
               "SELECT e.Service FROM Entries e ORDER BY padding-padding")
        done;
        Obs.Qlog.close log;
        Alcotest.(check bool) "rotated segment exists" true
          (Sys.file_exists (path ^ ".1"));
        Alcotest.(check bool) "keep bound respected" false
          (Sys.file_exists (path ^ ".3"));
        (* no record was lost across the rotation boundary *)
        let count p =
          match Obs.Qlog.fold p ~init:0 ~f:(fun n _ -> n + 1) with
          | Ok (n, 0) -> n
          | Ok (_, k) -> Alcotest.failf "%d skipped lines in %s" k p
          | Error e -> Alcotest.fail e
        in
        let segments =
          List.filter Sys.file_exists [ path; path ^ ".1"; path ^ ".2" ]
        in
        let total = List.fold_left (fun n p -> n + count p) 0 segments in
        Alcotest.(check int) "all records durable" 60 total);
    Alcotest.test_case "a failing write drops the record, never raises"
      `Quick (fun () ->
        let path = Filename.concat (tmpdir ()) "q.log" in
        let arm = ref false in
        let io_hook site =
          if !arm && site = "qlog.write" then failwith "injected"
        in
        let log = Result.get_ok (Obs.Qlog.open_log ~io_hook path) in
        let dropped () =
          match Obs.Metrics.find_counter "qlog.dropped" with
          | Some c -> Obs.Metrics.value c
          | None -> 0
        in
        let before = dropped () in
        Obs.Qlog.append log (mk_record "SELECT ok");
        arm := true;
        Obs.Qlog.append log (mk_record "SELECT lost");
        arm := false;
        Obs.Qlog.close log;
        Alcotest.(check int) "one drop counted" (before + 1) (dropped ());
        let n, _ =
          Result.get_ok (Obs.Qlog.fold path ~init:0 ~f:(fun n _ -> n + 1))
        in
        Alcotest.(check int) "only the healthy record landed" 1 n);
    Alcotest.test_case "slow records are mirrored to the sibling log" `Quick
      (fun () ->
        let path = Filename.concat (tmpdir ()) "q.log" in
        let log =
          Result.get_ok (Obs.Qlog.open_log ~slow_ms:10.0 path)
        in
        Obs.Qlog.append log (mk_record ~trace:"fast" ~ms:1.0 "SELECT 1");
        Obs.Qlog.append log (mk_record ~trace:"slow" ~ms:50.0 "SELECT 2");
        Obs.Qlog.close log;
        let traces, _ =
          Result.get_ok
            (Obs.Qlog.fold (Obs.Qlog.slow_path log) ~init:[]
               ~f:(fun acc r -> r.Obs.Qlog.trace_id :: acc))
        in
        Alcotest.(check (list string))
          "only the slow one, same trace id" [ "slow" ] traces);
  ]

(* ---------------- qlog aggregation ---------------- *)

let qstats_tests =
  [
    Alcotest.test_case "percentiles are nearest-rank over all records"
      `Quick (fun () ->
        let path = Filename.concat (tmpdir ()) "q.log" in
        let log = Result.get_ok (Obs.Qlog.open_log path) in
        for i = 1 to 100 do
          Obs.Qlog.append log
            (mk_record ~workload:"w" ~ms:(float_of_int i)
               (Printf.sprintf "SELECT %d" ((i mod 3) + 1)))
        done;
        Obs.Qlog.close log;
        let s = Result.get_ok (Obs.Qstats.of_files ~top:2 [ path ]) in
        Alcotest.(check int) "records" 100 s.Obs.Qstats.records;
        Alcotest.(check int) "one workload" 1 (List.length s.workloads);
        let w = List.hd s.workloads in
        Alcotest.(check (float 0.001)) "p50" 50.0 w.Obs.Qstats.p50;
        Alcotest.(check (float 0.001)) "p95" 95.0 w.p95;
        Alcotest.(check (float 0.001)) "p99" 99.0 w.p99;
        Alcotest.(check (float 0.001)) "max" 100.0 w.max;
        Alcotest.(check int) "top list bounded" 2
          (List.length s.by_count);
        (* i mod 3 = 1 on 34 of 1..100, so "SELECT 2" leads *)
        Alcotest.(check string) "most frequent first" "SELECT 2"
          (List.hd s.by_count).Obs.Qstats.text);
    Alcotest.test_case "outcome and resilience trends are counted" `Quick
      (fun () ->
        let path = Filename.concat (tmpdir ()) "q.log" in
        let log = Result.get_ok (Obs.Qlog.open_log path) in
        Obs.Qlog.append log (mk_record ~cached:true "SELECT 1");
        Obs.Qlog.append log
          (mk_record ~outcome:"error" ~error:"boom" "SELECT 2");
        Obs.Qlog.append log
          (mk_record ~outcome:"degraded" ~retries:3 ~faults:2
             ~events:[ ("naive-fallback", "a.log") ]
             "SELECT 3");
        Obs.Qlog.close log;
        let s =
          Result.get_ok (Obs.Qstats.of_files ~slow_ms:0.5 [ path ])
        in
        let w = List.hd s.Obs.Qstats.workloads in
        Alcotest.(check int) "cached" 1 w.Obs.Qstats.cached;
        Alcotest.(check int) "errors" 1 w.errors;
        Alcotest.(check int) "degraded" 1 w.degraded;
        Alcotest.(check int) "retries" 3 w.retries;
        Alcotest.(check int) "faults" 2 w.faults;
        Alcotest.(check int) "slow at 0.5ms" 3 w.slow;
        (* the JSON shape the cram test pins: top-level keys exist *)
        match Obs.Qstats.to_json s with
        | Obs.Jsonx.Obj fields ->
            List.iter
              (fun k ->
                Alcotest.(check bool) ("has " ^ k) true
                  (List.mem_assoc k fields))
              [
                "records"; "skipped"; "workloads"; "top_by_count";
                "top_by_total_ms";
              ]
        | _ -> Alcotest.fail "to_json is not an object");
  ]

(* ---------------- Prometheus exposition ---------------- *)

let expo_tests =
  [
    Alcotest.test_case "rendered page is structurally valid" `Quick
      (fun () ->
        Obs.Metrics.incr (Obs.Metrics.counter "expo.test_counter");
        Obs.Metrics.observe
          (Obs.Metrics.histogram
             (Obs.Label.render "expo.test_ms" [ ("workload", "w1") ]))
          2.5;
        let page = Obs.Expo.render () in
        (match Obs.Expo.validate page with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let has needle =
          Astring.String.is_infix ~affix:needle page
        in
        Alcotest.(check bool) "prefixed counter" true
          (has "oqf_expo_test_counter");
        Alcotest.(check bool) "type comments" true (has "# TYPE");
        Alcotest.(check bool) "summary quantile series" true
          (has {|oqf_expo_test_ms{quantile="0.95",workload="w1"}|}
          || has {|oqf_expo_test_ms{workload="w1",quantile="0.95"}|}));
    Alcotest.test_case "hostile workload labels stay well-formed" `Quick
      (fun () ->
        Obs.Metrics.observe
          (Obs.Metrics.histogram
             (Obs.Label.render "expo.hostile_ms"
                [ ("workload", "evil\"} oqf_fake 1\n# TYPE") ]))
          1.0;
        match Obs.Expo.validate (Obs.Expo.render ()) with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("injection broke the page: " ^ e));
    Alcotest.test_case "validate rejects malformed lines" `Quick (fun () ->
        (match Obs.Expo.validate "oqf_ok 1\nbad name 2\n" with
        | Error e ->
            Alcotest.(check bool) ("names the line: " ^ e) true
              (Astring.String.is_infix ~affix:"line 2" e)
        | Ok () -> Alcotest.fail "accepted a malformed name");
        match Obs.Expo.validate "oqf_m{l=\"unterminated} 1\n" with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "accepted an unterminated label block");
  ]

let suites =
  [
    ("obs.metrics", metrics_tests);
    ("obs.trace", trace_tests);
    ("obs.sinks", sink_file_tests);
    ("obs.labels", label_tests);
    ("obs.qlog", qlog_tests);
    ("obs.qstats", qstats_tests);
    ("obs.expo", expo_tests);
  ]
