type counter = { c_name : string; count : int Atomic.t }

(* A histogram keeps at most [reservoir] observations: every one until
   the reservoir is full, then a uniform sample of all of them
   (Vitter's algorithm R), so a long-lived process's histograms stay
   bounded.  Count, sum and max cover every observation. *)
let reservoir = 4096

type histogram = {
  h_name : string;
  mutable values : float array;  (* the sample, first [len] slots live *)
  mutable len : int;
  mutable seen : int;
  mutable total : float;
  mutable top : float;
  rng : Random.State.t;
}

type item = Counter of counter | Histogram of histogram

(* The registry proper.  Counters are atomic cells so concurrent
   domains (the Exec worker pool) never lose increments; structural
   mutation — create-or-get interning, histogram observation, dumps —
   is serialized by [lock].  Holding a counter handle and bumping it
   stays lock-free, so the hot path is an uncontended fetch-and-add. *)
let registry : (string, item) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c
  | Some (Histogram _) ->
      invalid_arg (Printf.sprintf "Obs.Metrics.counter: %s is a histogram" name)
  | None ->
      let c = { c_name = name; count = Atomic.make 0 } in
      Hashtbl.replace registry name (Counter c);
      c

let[@inline] incr c = Atomic.incr c.count
let[@inline] add_to c n = ignore (Atomic.fetch_and_add c.count n)
let[@inline] value c = Atomic.get c.count
let set c n = Atomic.set c.count n
let find_counter name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> Some c
  | _ -> None

let histogram name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
      invalid_arg (Printf.sprintf "Obs.Metrics.histogram: %s is a counter" name)
  | None ->
      let h =
        {
          h_name = name;
          values = Array.make 16 0.0;
          len = 0;
          seen = 0;
          total = 0.0;
          top = Float.neg_infinity;
          rng = Random.State.make [| Hashtbl.hash name |];
        }
      in
      Hashtbl.replace registry name (Histogram h);
      h

let observe h x =
  locked @@ fun () ->
  h.seen <- h.seen + 1;
  h.total <- h.total +. x;
  if x > h.top then h.top <- x;
  if h.len < reservoir then begin
    if h.len = Array.length h.values then begin
      let bigger = Array.make (2 * h.len) 0.0 in
      Array.blit h.values 0 bigger 0 h.len;
      h.values <- bigger
    end;
    h.values.(h.len) <- x;
    h.len <- h.len + 1
  end
  else
    let j = Random.State.full_int h.rng h.seen in
    if j < reservoir then h.values.(j) <- x

type summary = {
  count : int;
  sum : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

(* Nearest-rank percentile on a sorted copy of the sample. *)
let summarize_unlocked h =
  if h.len = 0 then None
  else begin
    let sorted = Array.sub h.values 0 h.len in
    Array.sort Float.compare sorted;
    let n = h.len in
    let rank q = min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)) in
    Some
      {
        count = h.seen;
        sum = h.total;
        p50 = sorted.(rank 0.5);
        p95 = sorted.(rank 0.95);
        p99 = sorted.(rank 0.99);
        max = h.top;
      }
  end

let summarize h = locked @@ fun () -> summarize_unlocked h
let sorted_items () =
  let all =
    locked @@ fun () ->
    Hashtbl.fold (fun name item acc -> (name, item) :: acc) registry []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let counters () =
  List.filter_map
    (function name, Counter c -> Some (name, Atomic.get c.count) | _ -> None)
    (sorted_items ())

let histograms () =
  List.filter_map
    (function
      | name, Histogram h -> Option.map (fun s -> (name, s)) (summarize h)
      | _ -> None)
    (sorted_items ())

let dump ppf () =
  List.iter
    (fun (name, item) ->
      match item with
      | Counter c -> Format.fprintf ppf "%s = %d@." name (Atomic.get c.count)
      | Histogram h -> begin
          match summarize h with
          | None -> Format.fprintf ppf "%s = (no observations)@." name
          | Some s ->
              Format.fprintf ppf
                "%s = count=%d sum=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f@."
                name s.count s.sum s.p50 s.p95 s.p99 s.max
        end)
    (sorted_items ())

let reset_all () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ item ->
      match item with
      | Counter c -> Atomic.set c.count 0
      | Histogram h ->
          h.len <- 0;
          h.seen <- 0;
          h.total <- 0.0;
          h.top <- Float.neg_infinity)
    registry
