type severity = Error | Warning | Hint

type span = { start : int; stop : int }

type t = {
  code : string;
  severity : severity;
  span : span option;
  subject : string option;
  message : string;
  detail : string option;
}

let make ?span ?subject ?detail ~code ~severity message =
  { code; severity; span; subject; message; detail }

let with_subject subject d =
  match d.subject with Some _ -> d | None -> { d with subject = Some subject }

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let span_of_word ~text word =
  let n = String.length text and m = String.length word in
  let boundary i = i < 0 || i >= n || not (is_word_char text.[i]) in
  let rec go i =
    if i + m > n then None
    else if
      String.sub text i m = word && boundary (i - 1) && boundary (i + m)
    then Some { start = i; stop = i + m }
    else go (i + 1)
  in
  if m = 0 then None else go 0

let severity_rank = function Error -> 0 | Warning -> 1 | Hint -> 2

let compare a b =
  match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> begin
      match String.compare a.code b.code with
      | 0 ->
          let pos d =
            match d.span with Some s -> s.start | None -> max_int
          in
          Stdlib.compare (pos a) (pos b)
      | c -> c
    end
  | c -> c

let sort ds = List.stable_sort compare ds
let errors ds = List.filter (fun d -> d.severity = Error) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let count ds =
  List.fold_left
    (fun (e, w, h) d ->
      match d.severity with
      | Error -> (e + 1, w, h)
      | Warning -> (e, w + 1, h)
      | Hint -> (e, w, h + 1))
    (0, 0, 0) ds

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let pp_severity ppf s = Format.pp_print_string ppf (severity_to_string s)

let pp ppf d =
  Format.fprintf ppf "%a[%s]" pp_severity d.severity d.code;
  (match d.subject with
  | Some s -> Format.fprintf ppf " %s:" s
  | None -> ());
  Format.fprintf ppf " %s" d.message;
  (match d.detail with
  | Some detail -> Format.fprintf ppf " -- %s" detail
  | None -> ());
  match d.span with
  | Some { start; stop } -> Format.fprintf ppf " (at %d..%d)" start stop
  | None -> ()

let to_string d = Format.asprintf "%a" pp d

let to_json d =
  let str s = Obs.Jsonx.Str s in
  let opt key = Option.fold ~none:[] ~some:(fun v -> [ (key, str v) ]) in
  Obs.Jsonx.Obj
    ([
       ("code", str d.code);
       ("severity", str (severity_to_string d.severity));
     ]
    @ opt "subject" d.subject
    @ [ ("message", str d.message) ]
    @ opt "detail" d.detail
    @
    match d.span with
    | Some { start; stop } ->
        let num n = Obs.Jsonx.Num (float_of_int n) in
        [ ("span", Obs.Jsonx.Obj [ ("start", num start); ("stop", num stop) ]) ]
    | None -> [])

let list_to_json ds =
  match ds with
  | [] -> "[]"
  | ds ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i d ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf ("  " ^ Obs.Jsonx.to_string (to_json d)))
        ds;
      Buffer.add_string buf "\n]";
      Buffer.contents buf

let registry =
  [
    ("OQF000", Error, "query or expression does not parse/compile");
    ("OQF001", Error, "trivially-empty expression under the RIG (Prop 3.3)");
    ("OQF002", Error, "unknown region name w.r.t. the RIG/schema");
    ("OQF003", Hint, "weakenable direct inclusion (Prop 3.5a)");
    ("OQF004", Hint, "shortenable inclusion chain (Prop 3.5b)");
    ("OQF005", Warning, "RIG-unreachable pair: empty on every conforming instance");
    ("OQF006", Warning, "direct-inclusion cost estimate above threshold");
    ("OQF101", Warning, "non-terminal unreachable from the grammar root");
    ("OQF102", Error, "declared RIG inconsistent with the grammar-derived RIG");
    ("OQF103", Hint, "non-natural schema construct");
    ("OQF201", Warning, "catalogued index is stale (source appended/changed)");
    ("OQF202", Warning, "orphan index file not referenced by the manifest");
    ("OQF203", Error, "catalog entry unusable (missing or unreadable file)");
    ("OQF301", Warning, "subsumed subexpression: a union arm is contained in another");
    ("OQF302", Warning, "tautological conjunct: an intersection operand is implied by another");
    ("OQF303", Warning, "empty by containment: a difference provably removes everything");
    ("OQF304", Warning, "batch query subsumed by another query of the same batch");
    ("OQF305", Hint, "minimizable expression: a provably-equivalent smaller form exists");
  ]
