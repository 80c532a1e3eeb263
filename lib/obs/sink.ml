type node = {
  name : string;
  start_ms : float;
  stop_ms : float;
  attrs : Trace.attrs;
  events : (string * float * Trace.attrs) list;
  children : node list;
}

let duration_ms n = n.stop_ms -. n.start_ms

(* ------------------------------------------------------------------ *)
(* memory: reconstruct the span forest from the event stream *)

type partial = {
  p_name : string;
  p_start : float;
  p_parent : int;
  mutable p_stop : float;
  mutable p_attrs : Trace.attrs;
  mutable p_events : (string * float * Trace.attrs) list;  (* reversed *)
  mutable p_children : int list;  (* reversed *)
}

let memory () =
  let spans : (int, partial) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  let root_events = ref [] in
  let emit = function
    | Trace.Begin { id; parent; name; ts } ->
        Hashtbl.replace spans id
          {
            p_name = name;
            p_start = ts;
            p_parent = parent;
            p_stop = ts;
            p_attrs = [];
            p_events = [];
            p_children = [];
          };
        if parent = 0 then roots := id :: !roots
        else begin
          match Hashtbl.find_opt spans parent with
          | Some p -> p.p_children <- id :: p.p_children
          | None -> roots := id :: !roots
        end
    | Trace.End { id; ts; attrs; _ } -> begin
        match Hashtbl.find_opt spans id with
        | Some p ->
            p.p_stop <- ts;
            p.p_attrs <- attrs
        | None -> ()
      end
    | Trace.Instant { name; parent; ts; attrs } -> begin
        match Hashtbl.find_opt spans parent with
        | Some p -> p.p_events <- (name, ts, attrs) :: p.p_events
        | None -> root_events := (name, ts, attrs) :: !root_events
      end
  in
  let rec build id =
    let p = Hashtbl.find spans id in
    {
      name = p.p_name;
      start_ms = p.p_start;
      stop_ms = p.p_stop;
      attrs = p.p_attrs;
      events = List.rev p.p_events;
      children = List.rev_map build p.p_children;
    }
  in
  let forest () = List.rev_map build !roots in
  ({ Trace.emit; flush = (fun () -> ()) }, forest)

(* ------------------------------------------------------------------ *)
(* JSON helpers *)

let json_value = function
  | Trace.Str s -> Printf.sprintf "\"%s\"" (Jsonx.escape s)
  | Trace.Int i -> string_of_int i
  | Trace.Float f -> Printf.sprintf "%g" f
  | Trace.Bool b -> string_of_bool b

let json_attrs attrs =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Jsonx.escape k) (json_value v))
       attrs)

(* ------------------------------------------------------------------ *)
(* jsonl *)

let jsonl oc =
  let line ev id parent name ts attrs =
    Printf.fprintf oc
      "{\"ev\":\"%s\",\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"ts_ms\":%.3f,\"attrs\":{%s}}\n"
      ev id parent (Jsonx.escape name) ts (json_attrs attrs)
  in
  let emit = function
    | Trace.Begin { id; parent; name; ts } -> line "begin" id parent name ts []
    | Trace.End { id; name; ts; attrs } -> line "end" id 0 name ts attrs
    | Trace.Instant { name; parent; ts; attrs } ->
        line "instant" 0 parent name ts attrs
  in
  { Trace.emit; flush = (fun () -> flush oc) }

(* ------------------------------------------------------------------ *)
(* chrome trace_event: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU *)

let chrome oc =
  let first = ref true in
  output_string oc "[\n";
  let record ~ph ~name ~ts ?(extra = "") () =
    if !first then first := false else output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.1f,\"pid\":1,\"tid\":1%s}"
      (Jsonx.escape name) ph (ts *. 1000.0) extra
  in
  let args attrs =
    if attrs = [] then "" else Printf.sprintf ",\"args\":{%s}" (json_attrs attrs)
  in
  let emit = function
    | Trace.Begin { name; ts; _ } -> record ~ph:"B" ~name ~ts ()
    | Trace.End { name; ts; attrs; _ } ->
        record ~ph:"E" ~name ~ts ~extra:(args attrs) ()
    | Trace.Instant { name; ts; attrs; _ } ->
        record ~ph:"i" ~name ~ts ~extra:(",\"s\":\"t\"" ^ args attrs) ()
  in
  let flush () =
    output_string oc "\n]\n";
    flush oc
  in
  { Trace.emit; flush }
