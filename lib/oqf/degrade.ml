type action = Naive_fallback | Excluded

type t = { file : string; action : action; detail : string }

let make ~file action detail = { file; action; detail }

let action_to_string = function
  | Naive_fallback -> "naive fallback"
  | Excluded -> "excluded"

let pp ppf t =
  let verb =
    match t.action with
    | Naive_fallback -> "fell back to a naive scan"
    | Excluded -> "excluded from the result"
  in
  Format.fprintf ppf "%s: %s (%s)" t.file verb t.detail

let pp_report ppf = function
  | [] -> ()
  | ds ->
      Format.fprintf ppf "degraded:@\n";
      List.iter (fun d -> Format.fprintf ppf "  %a@\n" pp d) ds

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  Printf.sprintf {|{"file":"%s","action":"%s","detail":"%s"}|}
    (json_escape t.file)
    (json_escape (action_to_string t.action))
    (json_escape t.detail)

let list_to_json ds = "[" ^ String.concat "," (List.map to_json ds) ^ "]"
