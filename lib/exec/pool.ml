(* Fixed-size domain pool over one bounded queue: Mutex + two
   Conditions ([not_empty] wakes workers, [not_full] wakes blocked
   submitters).  Tasks are pre-packed [unit -> unit] closures that
   write their own handle, so the queue needs no existential. *)

let tasks_completed = Obs.Metrics.counter "exec.pool.tasks_completed"
let tasks_failed = Obs.Metrics.counter "exec.pool.tasks_failed"
let tasks_timed_out = Obs.Metrics.counter "exec.pool.tasks_timed_out"
let task_escapes = Obs.Metrics.counter "exec.pool.task_escapes"
let worker_deaths = Obs.Metrics.counter "exec.pool.worker_deaths"
let queue_depth = Obs.Metrics.histogram "exec.pool.queue_depth"

type t = {
  n_jobs : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

type 'a state = Pending | Done of ('a, string) result

type 'a handle = {
  h_lock : Mutex.t;
  h_done : Condition.t;
  mutable state : 'a state;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let jobs t = t.n_jobs

let worker t index =
  let rec loop () =
    let task =
      locked t.lock (fun () ->
          while Queue.is_empty t.queue && not t.closing do
            Condition.wait t.not_empty t.lock
          done;
          if Queue.is_empty t.queue then None  (* closing and drained *)
          else begin
            let task = Queue.pop t.queue in
            Condition.signal t.not_full;
            Some task
          end)
    in
    match task with
    | None -> ()
    | Some task ->
        (* A task closure normally captures its own failures into its
           handle; if one still lets an exception escape, the worker
           must survive it — a dead worker would strand every queued
           task and hang the awaiting callers. *)
        (try
           if Obs.Trace.enabled () then
             Obs.Trace.with_span "exec.task"
               ~attrs:(fun () -> [ ("worker", Obs.Trace.Int index) ])
               task
           else task ()
         with _ -> Obs.Metrics.incr task_escapes);
        loop ()
  in
  loop ()

let queue_capacity = 256

let create ~jobs () =
  if jobs < 1 then invalid_arg "Exec.Pool.create: jobs must be at least 1";
  let t =
    {
      n_jobs = jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      closing = false;
      workers = [];
    }
  in
  t.workers <- List.init jobs (fun i -> Domain.spawn (fun () -> worker t i));
  t

let complete h result =
  locked h.h_lock (fun () ->
      h.state <- Done result;
      Condition.broadcast h.h_done)

let capture ?timeout_ms f =
  match
    match timeout_ms with
    | None -> f ()
    | Some ms -> Obs.Deadline.with_timeout_ms ms f
  with
  | v ->
      Obs.Metrics.incr tasks_completed;
      Ok v
  | exception Obs.Deadline.Expired budget ->
      Obs.Metrics.incr tasks_timed_out;
      Error (Printf.sprintf "task timed out after %.0f ms" budget)
  | exception e ->
      Obs.Metrics.incr tasks_failed;
      Error (Printexc.to_string e)

let submit ?timeout_ms t f =
  let h = { h_lock = Mutex.create (); h_done = Condition.create (); state = Pending } in
  let run () =
    (* The handle is completed no matter how this closure exits — even
       an exception from the metrics/trace plumbing cannot leave an
       awaiting caller blocked forever. *)
    let result = ref (Error "task abandoned by its worker") in
    Fun.protect
      ~finally:(fun () -> complete h !result)
      (fun () -> result := capture ?timeout_ms f)
  in
  locked t.lock (fun () ->
      if t.closing then invalid_arg "Exec.Pool.submit: pool is shut down";
      while Queue.length t.queue >= queue_capacity && not t.closing do
        Condition.wait t.not_full t.lock
      done;
      if t.closing then invalid_arg "Exec.Pool.submit: pool is shut down";
      Queue.push run t.queue;
      Obs.Metrics.observe queue_depth (float_of_int (Queue.length t.queue));
      Condition.signal t.not_empty);
  h

let await h =
  locked h.h_lock (fun () ->
      let rec wait () =
        match h.state with
        | Pending ->
            Condition.wait h.h_done h.h_lock;
            wait ()
        | Done r -> r
      in
      wait ())

let shutdown t =
  let workers =
    locked t.lock (fun () ->
        t.closing <- true;
        Condition.broadcast t.not_empty;
        Condition.broadcast t.not_full;
        let ws = t.workers in
        t.workers <- [];
        ws)
  in
  (* Join every domain even if one died abnormally: shutdown must not
     leak the remaining workers or re-raise mid-join. *)
  List.iter
    (fun d ->
      try Domain.join d with _ -> Obs.Metrics.incr worker_deaths)
    workers

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
