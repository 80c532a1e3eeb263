type t = {
  expr : Expr.t;
  label : string;
  out_card : int;
  self_ops : int;
  self_cmps : int;
  self_lookups : int;
  self_regions : int;
  duration_ms : float;
  cached : bool;
  children : t list;
}

let rec total f n = f n + List.fold_left (fun acc c -> acc + total f c) 0 n.children

let total_ops = total (fun n -> n.self_ops)
let total_cmps = total (fun n -> n.self_cmps)
let total_lookups = total (fun n -> n.self_lookups)

let pp ?estimate ?est_rows ?(show_times = false) ppf root =
  let rec go indent n =
    Format.fprintf ppf "%s%s%s  [out=%d" indent n.label
      (if n.cached then " (shared)" else "")
      n.out_card;
    (match est_rows with
    | Some est -> Format.fprintf ppf " est-rows=%.0f" (est n.expr)
    | None -> ());
    Format.fprintf ppf " self: ops=%d cmps=%d" n.self_ops n.self_cmps;
    if n.self_lookups > 0 then Format.fprintf ppf " lookups=%d" n.self_lookups;
    if n.children <> [] then
      Format.fprintf ppf " | subtree: ops=%d cmps=%d" (total_ops n)
        (total_cmps n);
    (match estimate with
    | Some est ->
        Format.fprintf ppf " | est weighted=%.1f" (est n.expr)
    | None -> ());
    if show_times then Format.fprintf ppf " | %.3f ms" n.duration_ms;
    Format.fprintf ppf "]@.";
    List.iter (go (indent ^ "  ")) n.children
  in
  go "" root
