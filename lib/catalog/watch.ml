(* Polling watcher for live corpora.  One scan stats every entry
   (mtime/size — the inotify-ready seam: an event source would simply
   mark entries dirty instead of polling), refreshes what changed, and
   retires unreferenced generations.  [start] runs scans in a
   background domain with retry/backoff ({!Stdx.Retry.io} around the
   whole scan) so the watcher survives transient I/O failure, and a
   per-source circuit breaker so one flapping file cannot burn the
   retry budget on every pass. *)

type event =
  | Refreshed of string * Catalog.refresh
  | Failed of string * string
  | Skipped of string

type report = {
  scanned : int;
  refreshed : int;
  failed : int;
  skipped : int;
  retired : string list;
  generation : int;
}

let scans_c = Obs.Metrics.counter "watch.scans"
let refreshes_c = Obs.Metrics.counter "watch.refreshes"
let errors_c = Obs.Metrics.counter "watch.errors"

let breaker_key source = "watch:" ^ source

(* An open breaker would otherwise skip its source forever (the
   breaker has no timer); probing it every few scans gives a healed
   source a way back in without letting it flap every pass. *)
let probe_period = 8

let locked lock f =
  match lock with
  | None -> f ()
  | Some m ->
      Mutex.lock m;
      Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* [probe_open] attempts sources whose breaker is open; only {!start}
   asks for that, every [probe_period] scans. *)
let scan_with ?lock ?on_event ~probe_open cat =
  Obs.Trace.with_span "watch.scan"
    ~attrs:(fun () ->
      [ ("generation", Obs.Trace.Int (Catalog.generation cat)) ])
  @@ fun () ->
  Stdx.Fault.hit "watch.scan";
  let emit ev = match on_event with None -> () | Some f -> f ev in
  let refreshed = ref 0 and failed = ref 0 and skipped = ref 0 in
  let entries = Catalog.entries cat in
  List.iter
    (fun (e : Catalog.entry) ->
      if Catalog.possibly_stale cat e then begin
        let key = breaker_key e.source in
        if Stdx.Retry.Breaker.state key = Stdx.Retry.Breaker.Open
           && not probe_open
        then begin
          incr skipped;
          emit (Skipped e.source)
        end
        else begin
          match locked lock (fun () -> Catalog.refresh cat e.source) with
          | Ok Catalog.Unchanged -> Stdx.Retry.Breaker.success key
          | Ok r ->
              Stdx.Retry.Breaker.success key;
              incr refreshed;
              Obs.Metrics.incr refreshes_c;
              emit (Refreshed (e.source, r))
          | Error msg ->
              Stdx.Retry.Breaker.failure key;
              incr failed;
              emit (Failed (e.source, msg))
        end
      end)
    entries;
  let retired = locked lock (fun () -> Catalog.retire_unreferenced cat) in
  Obs.Metrics.incr scans_c;
  {
    scanned = List.length entries;
    refreshed = !refreshed;
    failed = !failed;
    skipped = !skipped;
    retired;
    generation = Catalog.generation cat;
  }

let scan ?lock ?on_event cat = scan_with ?lock ?on_event ~probe_open:false cat

(* One qlog record per scan that changed something, so ingest activity
   lands in the same durable stream as the queries it races. *)
let log_scan ~t0 (r : report) =
  match Obs.Qlog.installed () with
  | None -> ()
  | Some log ->
      if r.refreshed > 0 || r.failed > 0 then begin
        let ctx =
          { Obs.Qlog.trace_id = Obs.Qlog.gen_trace_id (); workload = "watch" }
        in
        Obs.Qlog.append log
          (Obs.Qlog.make ~ctx ~workload_default:"watch" ~schema:"" ~kind:"watch"
             ~query:
               (Printf.sprintf "scan refreshed=%d failed=%d retired=%d"
                  r.refreshed r.failed (List.length r.retired))
             ~latency_ms:(Obs.Trace.now_ms () -. t0)
             ~rows:r.refreshed ~cached:false
             ~outcome:(if r.failed > 0 then "degraded" else "ok")
             ~generation:r.generation ())
      end

type t = {
  stop_flag : bool Atomic.t;
  domain : unit Domain.t;
}

let start ?(interval_ms = 500.) ?lock ?on_event cat =
  let stop_flag = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        let scans = ref 0 in
        (* sleep in short slices so [stop] stays responsive at long
           intervals *)
        let idle () =
          let deadline = Unix.gettimeofday () +. (interval_ms /. 1000.) in
          let rec go () =
            if not (Atomic.get stop_flag) then begin
              let left = deadline -. Unix.gettimeofday () in
              if left > 0. then begin
                Unix.sleepf (Float.min 0.05 left);
                go ()
              end
            end
          in
          go ()
        in
        while not (Atomic.get stop_flag) do
          incr scans;
          let probe_open = !scans mod probe_period = 0 in
          let t0 = Obs.Trace.now_ms () in
          (try
             let r =
               Stdx.Retry.io ~site:"watch.scan" (fun () ->
                   scan_with ?lock ?on_event ~probe_open cat)
             in
             log_scan ~t0 r
           with _ ->
             (* an exhausted retry budget must not kill the watcher:
                count it and try again next tick *)
             Obs.Metrics.incr errors_c);
          idle ()
        done)
  in
  { stop_flag; domain }

let stop w =
  Atomic.set w.stop_flag true;
  Domain.join w.domain
