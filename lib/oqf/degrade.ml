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
