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
(* rendering *)

let pp_value ppf = function
  | Trace.Str s -> Format.fprintf ppf "%s" s
  | Trace.Int i -> Format.fprintf ppf "%d" i
  | Trace.Float f -> Format.fprintf ppf "%g" f
  | Trace.Bool b -> Format.fprintf ppf "%b" b

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
      Format.fprintf ppf " {%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
           (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k pp_value v))
        attrs

let pp_node ?(show_times = true) ppf root =
  let rec go indent n =
    Format.fprintf ppf "%s%s" indent n.name;
    if show_times then Format.fprintf ppf " (%.3f ms)" (duration_ms n);
    pp_attrs ppf n.attrs;
    Format.fprintf ppf "@.";
    List.iter
      (fun (name, _, attrs) ->
        Format.fprintf ppf "%s  * %s%a@." indent name pp_attrs attrs)
      n.events;
    List.iter (go (indent ^ "  ")) n.children
  in
  go "" root

let pretty ppf =
  let mem, forest = memory () in
  {
    Trace.emit = mem.Trace.emit;
    flush = (fun () -> List.iter (pp_node ppf) (forest ()));
  }

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
