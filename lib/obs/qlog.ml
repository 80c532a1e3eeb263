type ctx = { trace_id : string; workload : string }

let trace_seq = Atomic.make 0

let gen_trace_id () =
  let n = Atomic.fetch_and_add trace_seq 1 in
  let t = Unix.gettimeofday () in
  Printf.sprintf "q%x-%x-%d"
    (int_of_float (t *. 1e3) land 0xffffffff)
    (Unix.getpid () land 0xffff)
    n

type record = {
  ts : float;
  trace_id : string;
  workload : string;
  schema : string;
  kind : string;
  query : string;
  latency_ms : float;
  rows : int;
  cached : bool;
  outcome : string;
  error : string option;
  events : (string * string) list;
  retries : int;
  faults : int;
  candidates : int;
  est_cost : float;
  generation : int;
}

let make ~(ctx : ctx) ~workload_default ~schema ~kind ~query ~latency_ms ~rows ~cached
    ~outcome ?error ?(events = []) ?(retries = 0) ?(faults = 0)
    ?(candidates = 0) ?(est_cost = 0.) ?(generation = 0) () =
  let workload =
    if ctx.workload <> "" then ctx.workload else workload_default
  in
  {
    ts = Unix.gettimeofday ();
    trace_id = ctx.trace_id;
    workload = Label.sanitize workload;
    schema = Label.sanitize schema;
    kind;
    query;
    latency_ms;
    rows;
    cached;
    outcome;
    error;
    events;
    retries;
    faults;
    candidates;
    est_cost;
    generation;
  }

let record_to_json r =
  let open Jsonx in
  let base =
    [
      ("ts", Num r.ts);
      ("trace", Str r.trace_id);
      ("workload", Str r.workload);
      ("schema", Str r.schema);
      ("kind", Str r.kind);
      ("query", Str r.query);
      ("ms", Num r.latency_ms);
      ("rows", Num (float_of_int r.rows));
      ("cached", Bool r.cached);
      ("outcome", Str r.outcome);
    ]
  in
  let base =
    match r.error with None -> base | Some e -> base @ [ ("error", Str e) ]
  in
  let base =
    match r.events with
    | [] -> base
    | evs ->
        base
        @ [
            ( "events",
              Arr
                (List.map
                   (fun (a, d) -> Obj [ ("action", Str a); ("detail", Str d) ])
                   evs) );
          ]
  in
  let base = if r.retries > 0 then base @ [ ("retries", Num (float_of_int r.retries)) ] else base in
  let base = if r.faults > 0 then base @ [ ("faults", Num (float_of_int r.faults)) ] else base in
  (* cost-model feedback: phase-1 candidate cardinality actually seen
     and the planner's estimated cost — the advisor's calibration
     signal.  Omitted at zero, so logs written before the fields
     existed and rules-mode logs read back identically. *)
  let base =
    if r.candidates > 0 then
      base @ [ ("candidates", Num (float_of_int r.candidates)) ]
    else base
  in
  let base =
    if r.est_cost > 0. then base @ [ ("est_cost", Num r.est_cost) ] else base
  in
  (* the catalog generation the query read (watch-mode ingest); 0 =
     unknown/static, omitted for compatibility both ways *)
  let base =
    if r.generation > 0 then
      base @ [ ("gen", Num (float_of_int r.generation)) ]
    else base
  in
  Obj base

let record_of_json j =
  let open Jsonx in
  let num_i k d = match member k j with Some (Num f) -> int_of_float f | _ -> d in
  let num_f k d = match member k j with Some (Num f) -> f | _ -> d in
  let str_d k d = match member k j with Some (Str s) -> s | _ -> d in
  match (member "trace" j, member "query" j, member "ms" j) with
  | Some (Str trace_id), Some (Str query), Some (Num latency_ms) ->
      Some
        {
          ts = num_f "ts" 0.;
          trace_id;
          workload = str_d "workload" "default";
          schema = str_d "schema" "";
          kind = str_d "kind" "query";
          query;
          latency_ms;
          rows = num_i "rows" 0;
          cached = (match member "cached" j with Some (Bool b) -> b | _ -> false);
          outcome = str_d "outcome" "ok";
          error = (match member "error" j with Some (Str e) -> Some e | _ -> None);
          events =
            (match member "events" j with
            | Some (Arr evs) ->
                List.filter_map
                  (fun ev ->
                    match (member "action" ev, member "detail" ev) with
                    | Some (Str a), Some (Str d) -> Some (a, d)
                    | Some (Str a), None -> Some (a, "")
                    | _ -> None)
                  evs
            | _ -> []);
          retries = num_i "retries" 0;
          faults = num_i "faults" 0;
          candidates = num_i "candidates" 0;
          est_cost = num_f "est_cost" 0.;
          generation = num_i "gen" 0;
        }
  | _ -> None

(* Counters describing the log's own health; they live in the shared
   registry so /metrics exposes telemetry about the telemetry. *)
let records_c = Metrics.counter "qlog.records"
let rotations_c = Metrics.counter "qlog.rotations"
let dropped_c = Metrics.counter "qlog.dropped"
let slow_c = Metrics.counter "qlog.slow"

type t = {
  path : string;
  max_bytes : int;
  keep : int;
  slow_ms : float option;
  io_hook : string -> unit;
  lock : Mutex.t;
  mutable oc : out_channel option;
  mutable size : int;
  mutable slow_oc : out_channel option;
  mutable closed : bool;
}

let path t = t.path
let slow_path t = t.path ^ ".slow"

let open_out_append p =
  open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 p

let open_log ?(max_bytes = 64 * 1024 * 1024) ?(keep = 3) ?slow_ms
    ?(io_hook = fun _ -> ()) p =
  match
    let oc = open_out_append p in
    let size = (Unix.fstat (Unix.descr_of_out_channel oc)).Unix.st_size in
    {
      path = p;
      max_bytes = max max_bytes 4096;
      keep = max keep 1;
      slow_ms;
      io_hook;
      lock = Mutex.create ();
      oc = Some oc;
      size;
      slow_oc = None;
      closed = false;
    }
  with
  | t -> Ok t
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let fsync_oc oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc) with _ -> ()

(* Shift path.(keep-1) -> path.keep … path -> path.1 and reopen.  The
   outgoing segment is flushed and fsynced before the (atomic) rename,
   so a crash anywhere in the shift loses no whole record. *)
let rotate t =
  t.io_hook "qlog.rotate";
  (match t.oc with
  | Some oc ->
      fsync_oc oc;
      close_out_noerr oc
  | None -> ());
  t.oc <- None;
  let seg i = Printf.sprintf "%s.%d" t.path i in
  (try Sys.remove (seg t.keep) with Sys_error _ -> ());
  for i = t.keep - 1 downto 1 do
    try Sys.rename (seg i) (seg (i + 1)) with Sys_error _ -> ()
  done;
  (try Sys.rename t.path (seg 1) with Sys_error _ -> ());
  let oc = open_out_append t.path in
  t.oc <- Some oc;
  t.size <- 0;
  Metrics.incr rotations_c

(* Transient I/O failures (fault injection, EINTR-ish conditions) are
   retried a few times before a record is dropped — telemetry masks
   transients like every other I/O site does, but without Stdx.Retry
   (obs sits below stdx).  The hook fires before the write, so a
   hook-injected failure retries cleanly; a genuine mid-line failure
   can at worst leave one torn line, which readers skip. *)
let attempts = 3

let rec persevere n f =
  try f () with e -> if n >= attempts then raise e else persevere (n + 1) f

let append t r =
  Mutex.lock t.lock;
  (try
     if not t.closed then begin
       let line = Jsonx.to_string (record_to_json r) ^ "\n" in
       if t.size + String.length line > t.max_bytes && t.size > 0 then
         persevere 1 (fun () -> rotate t);
       persevere 1 (fun () ->
           t.io_hook "qlog.write";
           match t.oc with
           | None -> raise Exit
           | Some oc ->
               output_string oc line;
               flush oc);
       t.size <- t.size + String.length line;
       Metrics.incr records_c;
       match t.slow_ms with
       | Some thresh when r.latency_ms >= thresh ->
           Metrics.incr slow_c;
           Trace.instant "slow_query"
             ~attrs:
               [ ("trace_id", Trace.Str r.trace_id); ("ms", Trace.Float r.latency_ms) ];
           let soc =
             match t.slow_oc with
             | Some soc -> soc
             | None ->
                 let soc = open_out_append (slow_path t) in
                 t.slow_oc <- Some soc;
                 soc
           in
           output_string soc (Jsonx.to_string (record_to_json r) ^ "\n");
           flush soc
       | _ -> ()
     end
   with _ -> Metrics.incr dropped_c);
  Mutex.unlock t.lock

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    (match t.oc with
    | Some oc ->
        fsync_oc oc;
        close_out_noerr oc
    | None -> ());
    t.oc <- None;
    (match t.slow_oc with
    | Some soc ->
        fsync_oc soc;
        close_out_noerr soc
    | None -> ());
    t.slow_oc <- None
  end;
  Mutex.unlock t.lock

let global : t option ref = ref None
let install o = global := o
let installed () = !global

let fold p ~init ~f =
  match open_in p with
  | exception Sys_error e -> Error e
  | ic ->
      let acc = ref init in
      let skipped = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Jsonx.parse line with
             | Ok j -> (
                 match record_of_json j with
                 | Some r -> acc := f !acc r
                 | None -> incr skipped)
             | Error _ -> incr skipped
         done
       with End_of_file -> ());
      close_in_noerr ic;
      Ok (!acc, !skipped)
