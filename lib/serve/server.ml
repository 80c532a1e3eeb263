module Catalog = Oqf_catalog.Catalog

type config = {
  socket_path : string;
  http_port : int option;
  catalog_dir : string;
  jobs : int;
  max_active : int;
  max_queue : int;
  default_timeout_ms : float option;
  default_fail_policy : Exec.Driver.fail_policy;
  drain_ms : float;
  watch : bool;
  watch_interval_ms : float;
}

let default_config ~catalog_dir ~socket_path =
  {
    socket_path;
    http_port = None;
    catalog_dir;
    jobs = 2;
    max_active = 8;
    max_queue = 16;
    default_timeout_ms = None;
    default_fail_policy = Exec.Driver.Degrade;
    drain_ms = 2000.;
    watch = false;
    watch_interval_ms = 500.;
  }

type t = {
  config : config;
  catalog : Catalog.t;
  catalog_lock : Mutex.t;
  corpora : (string, int * (Oqf.Corpus.t * Oqf.Degrade.t list)) Hashtbl.t;
      (** per schema: (generation it was built at, corpus and the
          files its snapshot could not load) *)
  mutable watcher : Oqf_catalog.Watch.t option;
  pool : Exec.Pool.t;
  rcache : Exec.Rcache.t;
  adm : Admission.t;
  listen_fd : Unix.file_descr;
  http_fd : Unix.file_descr option;
  shutting_down : bool Atomic.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  conns_lock : Mutex.t;
  mutable next_conn : int;
  mutable conn_threads : Thread.t list;
  mutable accept_threads : Thread.t list;
  done_signal : Mutex.t * Condition.t;
  mutable finished : bool;
}

let requests_c = Obs.Metrics.counter "serve.requests"
let connections_c = Obs.Metrics.counter "serve.connections"
let drained_c = Obs.Metrics.counter "serve.drained"
let reloads_c = Obs.Metrics.counter "serve.catalog_reloads"
let latency_h = Obs.Metrics.histogram "serve.request_latency_ms"

(* --- plumbing ------------------------------------------------------ *)

exception Closed_connection

let rec write_fully write fd b off n =
  if n > 0 then
    match write fd b off n with
    | w -> write_fully write fd b (off + w) (n - w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_fully write fd b off n
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        raise Closed_connection

let send fd resp =
  let line = Protocol.render_response resp ^ "\n" in
  write_fully Unix.write_substring fd line 0 (String.length line)

(* A request's row stream goes out in blocks: its lines are written
   into one fixed buffer ({!Protocol.out}), which is written out when
   full and at the end of every file block, so a scan costs a handful
   of write(2) calls (and runtime-lock handoffs between connection
   threads) instead of one per row. *)
let out_create fd = Protocol.out (write_fully Unix.write fd)

(* the terminal event of a streamed response, after its last rows *)
let out_finish fd out resp =
  Protocol.flush out;
  send fd resp

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- per-request catalog snapshot ---------------------------------- *)

(* Serve a pinned snapshot plus the corpus built from it.

   Without [--watch], every request first stat-checks the entries of
   its schema under the catalog lock and refreshes the ones that might
   have changed (one [stat] per entry per request in the steady
   state).  With [--watch] the background watcher does that instead
   and the request skips straight to pinning.

   Either way the request then pins the current generation and serves
   a corpus built purely from that snapshot.  The pin is what closes
   the old staleness race: a refresh committed by a later request (or
   the watcher) produces a *new* generation whose index files are
   distinct on disk, while this request keeps reading the byte-stable
   files of the generation it pinned.  The corpus cache is keyed by
   the generation it was built at, so concurrent requests on the same
   generation share one corpus and a new generation rebuilds it once.

   The corpus comes with a note per file the snapshot could not load
   (excluded from the corpus); the caller answers them like any other
   degradation.  The caller must [Catalog.release] the returned
   snapshot when the request is done streaming. *)
let corpus_for t schema =
  let snap =
    with_lock t.catalog_lock @@ fun () ->
    if not t.config.watch then
      List.iter
        (fun (e : Catalog.entry) ->
          if
            String.equal e.schema schema
            && Catalog.possibly_stale t.catalog e
          then
            match Catalog.refresh t.catalog e.source with
            | Ok Catalog.Unchanged -> ()
            | Ok _ -> Obs.Metrics.incr reloads_c
            | Error _ ->
                (* leave it; corpus building degrades or reports it *)
                ())
        (Catalog.entries t.catalog);
    Catalog.pin t.catalog
  in
  let gen = Catalog.snapshot_generation snap in
  let cached =
    with_lock t.catalog_lock @@ fun () ->
    match Hashtbl.find_opt t.corpora schema with
    | Some (g, built) when g = gen -> Some built
    | _ -> None
  in
  match cached with
  | Some built -> Ok (snap, built)
  | None -> (
      match Oqf.Corpus.of_snapshot snap ~schema with
      | Ok built ->
          with_lock t.catalog_lock (fun () ->
              Hashtbl.replace t.corpora schema (gen, built));
          Ok (snap, built)
      | Error e ->
          Catalog.release snap;
          Error e)

(* A file the pinned snapshot could not load fails a fail-fast
   request, naming it, as the CLI's corpus does; under the other
   policies the request answers without it and reports it. *)
let pinned_corpus t ~fail_policy schema =
  match corpus_for t schema with
  | Ok (snap, (_, (lost : Oqf.Degrade.t) :: _))
    when fail_policy = Exec.Driver.Fail_fast ->
      Catalog.release snap;
      Error (Printf.sprintf "%s: %s" lost.file lost.detail)
  | result -> result

(* --- request handlers ---------------------------------------------- *)

let diagnostics_payload ds = List.map Analysis.Diagnostic.to_json ds

let parse_diagnostic pp e =
  [
    Analysis.Diagnostic.make ~code:"OQF000" ~severity:Analysis.Diagnostic.Error
      (Format.asprintf "%a" pp e);
  ]

let degraded_triples ds =
  List.map
    (fun (d : Oqf.Degrade.t) ->
      (d.file, Oqf.Degrade.action_to_string d.action, d.detail))
    ds

(* The request's correlation context: the daemon-assigned trace id
   (one per request, [c<conn>-r<id>] on the socket, [h<conn>-r<id>] on
   the HTTP facade) plus the client's workload label.  The same id is
   attached to the request span, the qlog record, the slow-query entry
   and the terminal [done] event — one grep correlates all four. *)
let qctx ~trace (q : Protocol.query_req) =
  { Obs.Qlog.trace_id = trace; workload = q.workload }

let handle_query t fd id ~trace (q : Protocol.query_req) =
  let timeout_ms =
    match q.timeout_ms with
    | Some _ as s -> s
    | None -> t.config.default_timeout_ms
  in
  let fail_policy =
    Option.value ~default:t.config.default_fail_policy q.fail_policy
  in
  match pinned_corpus t ~fail_policy q.schema with
  | Error e -> send fd (Protocol.Failed { id; message = e })
  | Ok (snap, (corpus, lost)) -> (
      Fun.protect ~finally:(fun () -> Catalog.release snap) @@ fun () ->
      let generation = Catalog.snapshot_generation snap in
      match Odb.Query_parser.parse q.text with
      | Error e ->
          send fd
            (Protocol.Diagnostics
               {
                 id;
                 diagnostics =
                   diagnostics_payload
                     (parse_diagnostic Odb.Query_parser.pp_error e);
               })
      | Ok query -> (
          let sources = Oqf.Corpus.sources corpus in
          let gate =
            match sources with
            | [] -> []
            | (_, (src : Oqf.Execute.source)) :: _ ->
                (Oqf.Check.query ~text:q.text src.env query)
                  .Oqf.Check.diagnostics
          in
          if Analysis.Diagnostic.has_errors gate && not q.force then
            send fd
              (Protocol.Diagnostics
                 { id; diagnostics = diagnostics_payload gate })
          else
            let out = out_create fd in
            let on_rows ~file rows =
              List.iter (Protocol.row_writer out ~id ~file) rows;
              Protocol.flush out
            in
            match
              Exec.Driver.run_streaming ~force:q.force ~cache:t.rcache
                ?timeout_ms ~fail_policy ~qctx:(qctx ~trace q) ~generation
                ~pool:t.pool ~on_rows corpus query
            with
            | Ok outcome ->
                out_finish fd out
                  (Protocol.Done
                     {
                       id;
                       rows = List.length outcome.Exec.Driver.rows;
                       cached = outcome.Exec.Driver.from_cache;
                       degraded =
                         degraded_triples (lost @ outcome.Exec.Driver.degraded);
                       trace;
                     })
            | Error e -> out_finish fd out (Protocol.Failed { id; message = e })))

let handle_rexpr t fd id ~trace (q : Protocol.query_req) =
  let timeout_ms =
    match q.timeout_ms with
    | Some _ as s -> s
    | None -> t.config.default_timeout_ms
  in
  let fail_policy =
    Option.value ~default:t.config.default_fail_policy q.fail_policy
  in
  (* rexpr bypasses the driver, so it logs its own qlog record *)
  let t0 = Obs.Trace.now_ms () in
  match pinned_corpus t ~fail_policy q.schema with
  | Error e -> send fd (Protocol.Failed { id; message = e })
  | Ok (snap, (corpus, lost)) -> (
      Fun.protect ~finally:(fun () -> Catalog.release snap) @@ fun () ->
      let generation = Catalog.snapshot_generation snap in
      let qlog ~rows ~outcome ?error () =
        match Obs.Qlog.installed () with
        | None -> ()
        | Some log ->
            Obs.Qlog.append log
              (Obs.Qlog.make ~ctx:(qctx ~trace q) ~workload_default:q.schema
                 ~schema:q.schema ~kind:"rexpr" ~query:q.text
                 ~latency_ms:(Obs.Trace.now_ms () -. t0)
                 ~rows ~cached:false ~outcome ~generation ?error ())
      in
      match Ralg.Expr_parser.parse q.text with
      | Error e ->
          send fd
            (Protocol.Diagnostics
               {
                 id;
                 diagnostics =
                   diagnostics_payload
                     (parse_diagnostic Ralg.Expr_parser.pp_error e);
               })
      | Ok expr -> (
          (* each file is one pool task under the request's remaining
             budget, so [Obs.Deadline] bounds its evaluation once per
             operator on the worker; connection threads share the main
             domain and cannot arm a deadline of their own, so sending
             the regions checks the wall clock instead *)
          let deadline =
            Option.map (fun ms -> Obs.Trace.now_ms () +. ms) timeout_ms
          in
          let exception Stop of string in
          let check_clock () =
            match (deadline, timeout_ms) with
            | Some d, Some ms when Obs.Trace.now_ms () > d ->
                raise
                  (Stop (Printf.sprintf "request timed out after %g ms" ms))
            | _ -> ()
          in
          let eval_file (src : Oqf.Execute.source) =
            let task () =
              match Ralg.Eval.eval_shared src.instance expr with
              | set -> Ok set
              | exception Ralg.Eval.Unknown_region name ->
                  Error ("unknown region name " ^ name)
            in
            let timeout_ms =
              Option.map (fun d -> d -. Obs.Trace.now_ms ()) deadline
            in
            let h = Exec.Pool.submit ?timeout_ms t.pool task in
            match Exec.Pool.await h with
            | Ok (Ok set) -> set
            | Ok (Error message) -> raise (Stop message)
            | Error message ->
                (* an expired task reports like the clock check *)
                check_clock ();
                raise (Stop message)
          in
          let count = ref 0 in
          let out = out_create fd in
          match
            List.iter
              (fun (file, src) ->
                check_clock ();
                let write = Protocol.region_writer out ~id ~file in
                Pat.Region_set.iter
                  (fun (r : Pat.Region.t) ->
                    check_clock ();
                    incr count;
                    write ~start:r.start ~stop:r.stop)
                  (eval_file src);
                Protocol.flush out)
              (Oqf.Corpus.sources corpus)
          with
          | () ->
              qlog ~rows:!count ~outcome:"ok" ();
              out_finish fd out
                (Protocol.Done
                   {
                     id;
                     rows = !count;
                     cached = false;
                     degraded = degraded_triples lost;
                     trace;
                   })
          | exception Stop message ->
              qlog ~rows:!count ~outcome:"error" ~error:message ();
              out_finish fd out (Protocol.Failed { id; message })))

let stats_payload () =
  let counters = Obs.Metrics.counters () in
  let histograms = Obs.Metrics.histograms () in
  Obs.Jsonx.Obj
    [
      ( "counters",
        Obs.Jsonx.Obj
          (List.map
             (fun (n, v) -> (n, Obs.Jsonx.Num (float_of_int v)))
             counters) );
      ( "histograms",
        Obs.Jsonx.Obj
          (List.map
             (fun (n, (s : Obs.Metrics.summary)) ->
               ( n,
                 Obs.Jsonx.Obj
                   [
                     ("count", Obs.Jsonx.Num (float_of_int s.count));
                     ("p50", Obs.Jsonx.Num s.p50);
                     ("p95", Obs.Jsonx.Num s.p95);
                     ("p99", Obs.Jsonx.Num s.p99);
                     ("max", Obs.Jsonx.Num s.max);
                   ] ))
             histograms) );
    ]

(* Run [body] under an admission slot, observing request latency; the
   caller streams its own response events.  [head] runs once, before
   the first event: the HTTP facade writes its status line there. *)
let admitted t fd id ~trace ~head body =
  match Admission.acquire t.adm with
  | `Overloaded (active, queued) ->
      head `Unavailable;
      send fd (Protocol.Overloaded { id; active; queued })
  | `Closed ->
      head `Unavailable;
      send fd (Protocol.Failed { id; message = "server is shutting down" })
  | `Admitted ->
      head `Ok;
      Fun.protect
        ~finally:(fun () ->
          Admission.release t.adm;
          if Atomic.get t.shutting_down then Obs.Metrics.incr drained_c)
        (fun () ->
          Obs.Metrics.incr requests_c;
          let t0 = Obs.Trace.now_ms () in
          Obs.Trace.with_span "serve.request"
            ~attrs:(fun () -> [ ("trace_id", Obs.Trace.Str trace) ])
            body;
          Obs.Metrics.observe latency_h (Obs.Trace.now_ms () -. t0))

(* The one request dispatch of both front ends: ping, stats and
   shutdown answer at once, bypassing admission; a query or rexpr runs
   under an admission slot. *)
let handle_request t fd ~conn ~head id req =
  let trace = Printf.sprintf "%s-r%d" conn id in
  let reply resp =
    head `Ok;
    send fd resp
  in
  match req with
  | Protocol.Ping ->
      reply (Protocol.Pong { id });
      `Continue
  | Protocol.Stats ->
      reply (Protocol.Stats_reply { id; payload = stats_payload () });
      `Continue
  | Protocol.Shutdown ->
      reply (Protocol.Bye { id });
      `Shutdown
  | Protocol.Query q ->
      admitted t fd id ~trace ~head (fun () -> handle_query t fd id ~trace q);
      `Continue
  | Protocol.Rexpr q ->
      admitted t fd id ~trace ~head (fun () -> handle_rexpr t fd id ~trace q);
      `Continue

(* --- connection loops ---------------------------------------------- *)

let initiate_shutdown t =
  if not (Atomic.exchange t.shutting_down true) then begin
    Printf.printf "oqf serve: shutdown requested; draining\n%!";
    Admission.close t.adm
  end

let serve_connection t ~conn fd =
  let conn = Printf.sprintf "c%d" conn in
  let reader = Protocol.reader fd in
  let rec loop () =
    if Atomic.get t.shutting_down then ()
    else
      match Protocol.read_line reader with
      | `Eof -> ()
      | `Overflow ->
          send fd
            (Protocol.Failed
               {
                 id = 0;
                 message =
                   Printf.sprintf "request line exceeds %d bytes"
                     Protocol.max_line;
               });
          loop ()
      | `Line "" -> loop ()
      | `Line line -> (
          match Protocol.parse_request line with
          | Error (id, message) ->
              send fd (Protocol.Failed { id; message });
              loop ()
          | Ok (id, req) -> (
              match handle_request t fd ~conn ~head:ignore id req with
              | `Continue -> loop ()
              | `Shutdown -> initiate_shutdown t))
  in
  try loop () with Closed_connection -> ()

(* --- a minimal HTTP facade ----------------------------------------- *)

let http_headers_end = "\r\n\r\n"

(* first occurrence of [sub] in [s], naive scan *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let read_http_request fd =
  (* read head + body; bounded like the line protocol *)
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 2048 in
  let rec head () =
    let s = Buffer.contents buf in
    match find_sub s http_headers_end with
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 4) (String.length s - i - 4))
    | None ->
        if Buffer.length buf > Protocol.max_line then None
        else begin
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              head ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> head ()
        end
  in
  match head () with
  | None -> None
  | Some (head, partial_body) -> (
      match String.split_on_char ' ' (List.hd (String.split_on_char '\r' head)) with
      | meth :: path :: _ ->
          let content_length =
            List.fold_left
              (fun acc line ->
                match String.index_opt line ':' with
                | Some i
                  when String.lowercase_ascii (String.sub line 0 i)
                       = "content-length" -> (
                    let v =
                      String.trim
                        (String.sub line (i + 1) (String.length line - i - 1))
                    in
                    match int_of_string_opt v with Some n -> n | None -> acc)
                | _ -> acc)
              0
              (String.split_on_char '\n' head)
          in
          let body = Buffer.create (max 16 content_length) in
          Buffer.add_string body partial_body;
          let rec fill () =
            if Buffer.length body < content_length then begin
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes body chunk 0 n;
                  fill ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
            end
          in
          fill ();
          Some (meth, path, Buffer.contents body)
      | _ -> None)

let http_respond fd status content_type body =
  let head =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nConnection: close\r\n\r\n" status
      content_type
  in
  let all = head ^ body in
  let b = Bytes.of_string all in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

let serve_http_connection t ~conn fd =
  match read_http_request fd with
  | None -> http_respond fd "400 Bad Request" "text/plain" "bad request\n"
  | Some ("GET", "/health", _) -> http_respond fd "200 OK" "text/plain" "ok\n"
  | Some ("GET", "/metrics", _) ->
      (* Prometheus text exposition of the whole registry *)
      http_respond fd "200 OK" "text/plain; version=0.0.4" (Obs.Expo.render ())
  | Some ("POST", _, body) -> (
      match Protocol.parse_request (String.trim body) with
      | Error (_, msg) ->
          http_respond fd "400 Bad Request" "text/plain" (msg ^ "\n")
      | Ok (id, req) -> (
          (* stream the same ndjson events as the socket protocol;
             connection close delimits the stream *)
          let head status =
            http_respond fd
              (match status with
              | `Ok -> "200 OK"
              | `Unavailable -> "503 Service Unavailable")
              "application/x-ndjson" ""
          in
          match
            handle_request t fd ~conn:(Printf.sprintf "h%d" conn) ~head id req
          with
          | `Continue -> ()
          | `Shutdown -> initiate_shutdown t
          | exception Closed_connection -> ()))
  | Some _ ->
      http_respond fd "405 Method Not Allowed" "text/plain"
        "method not allowed\n"

(* --- lifecycle ----------------------------------------------------- *)

let register_conn t fd =
  with_lock t.conns_lock @@ fun () ->
  let id = t.next_conn in
  t.next_conn <- id + 1;
  Hashtbl.replace t.conns id fd;
  id

let unregister_conn t id =
  with_lock t.conns_lock @@ fun () ->
  (match Hashtbl.find_opt t.conns id with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  Hashtbl.remove t.conns id

let accept_loop t listen_fd handler =
  let rec loop () =
    if Atomic.get t.shutting_down then ()
    else begin
      (match Unix.select [ listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | fd, _ ->
              Obs.Metrics.incr connections_c;
              let cid = register_conn t fd in
              let th =
                Thread.create
                  (fun () ->
                    Fun.protect
                      ~finally:(fun () -> unregister_conn t cid)
                      (fun () -> handler t ~conn:cid fd))
                  ()
              in
              with_lock t.conns_lock (fun () ->
                  t.conn_threads <- th :: t.conn_threads)
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ());
      loop ()
    end
  in
  loop ()

let bind_unix_socket path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64
  with
  | () -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message err))

let bind_http_socket port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  match
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64
  with
  | () -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot bind 127.0.0.1:%d: %s" port
           (Unix.error_message err))

let start config =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match Catalog.open_dir config.catalog_dir with
  | Error e -> Error (Printf.sprintf "cannot open catalog: %s" e)
  | Ok catalog -> (
      match bind_unix_socket config.socket_path with
      | Error e -> Error e
      | Ok listen_fd -> (
          let http =
            match config.http_port with
            | None -> Ok None
            | Some port -> Result.map Option.some (bind_http_socket port)
          in
          match http with
          | Error e ->
              (try Unix.close listen_fd with Unix.Unix_error _ -> ());
              Error e
          | Ok http_fd ->
              let t =
                {
                  config;
                  catalog;
                  catalog_lock = Mutex.create ();
                  corpora = Hashtbl.create 4;
                  watcher = None;
                  pool =
                    Exec.Pool.create ~jobs:(max 1 config.jobs) ();
                  rcache = Exec.Rcache.create ();
                  adm =
                    Admission.make ~max_active:config.max_active
                      ~max_queue:config.max_queue;
                  listen_fd;
                  http_fd;
                  shutting_down = Atomic.make false;
                  conns = Hashtbl.create 16;
                  conns_lock = Mutex.create ();
                  next_conn = 0;
                  conn_threads = [];
                  accept_threads = [];
                  done_signal = (Mutex.create (), Condition.create ());
                  finished = false;
                }
              in
              let threads =
                Thread.create (fun () -> accept_loop t listen_fd serve_connection) ()
                ::
                (match http_fd with
                | Some fd ->
                    [
                      Thread.create
                        (fun () -> accept_loop t fd serve_http_connection)
                        ();
                    ]
                | None -> [])
              in
              t.accept_threads <- threads;
              if config.watch then begin
                t.watcher <-
                  Some
                    (Oqf_catalog.Watch.start
                       ~interval_ms:config.watch_interval_ms
                       ~lock:t.catalog_lock catalog);
                Printf.printf "oqf serve: watching catalog (every %gms)\n%!"
                  config.watch_interval_ms
              end;
              Printf.printf "oqf serve: listening on %s\n%!"
                config.socket_path;
              (match config.http_port with
              | Some port ->
                  Printf.printf "oqf serve: http on 127.0.0.1:%d\n%!" port
              | None -> ());
              Ok t))

let request_shutdown t = initiate_shutdown t

let wait t =
  (* Block until shutdown is requested, then drain and tear down.
     Multiple callers are fine: the first does the teardown, the rest
     wait on [done_signal]. *)
  let m, c = t.done_signal in
  while not (Atomic.get t.shutting_down) do
    Thread.delay 0.05
  done;
  Mutex.lock m;
  if t.finished then begin
    Mutex.unlock m;
    ()
  end
  else begin
    Mutex.unlock m;
    List.iter Thread.join t.accept_threads;
    (* drain in-flight requests, bounded *)
    let deadline = Obs.Trace.now_ms () +. t.config.drain_ms in
    while Admission.active t.adm > 0 && Obs.Trace.now_ms () < deadline do
      Thread.delay 0.01
    done;
    (* cut off every connection; readers see EOF/EBADF and exit *)
    with_lock t.conns_lock (fun () ->
        Hashtbl.iter
          (fun _ fd ->
            (try Unix.shutdown fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ())
          t.conns;
        Hashtbl.reset t.conns);
    List.iter Thread.join t.conn_threads;
    (match t.watcher with
    | Some w ->
        Oqf_catalog.Watch.stop w;
        t.watcher <- None
    | None -> ());
    Exec.Pool.shutdown t.pool;
    (match Obs.Trace.sink () with Some s -> s.Obs.Trace.flush () | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.http_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ());
    Printf.printf "oqf serve: drained; bye\n%!";
    Mutex.lock m;
    t.finished <- true;
    Condition.broadcast c;
    Mutex.unlock m
  end;
  Mutex.lock m;
  while not t.finished do
    Condition.wait c m
  done;
  Mutex.unlock m

let run config =
  match start config with
  | Error _ as e -> e
  | Ok t ->
      let on_signal _ = request_shutdown t in
      (try
         Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
         Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
       with Invalid_argument _ -> ());
      wait t;
      Ok ()
