type t = { symbol : string; start : int; stop : int; content : content }

and content = Leaf | Branch of branch list

and branch =
  | Child of t
  | Children of string * t list
  | Text of int * int

let region t = Pat.Region.make ~start:t.start ~stop:t.stop

let children t =
  match t.content with
  | Leaf -> []
  | Branch branches ->
      List.concat_map
        (function
          | Child c -> [ c ]
          | Children (_, cs) -> cs
          | Text _ -> [])
        branches

let rec all_regions t =
  (t.symbol, region t) :: List.concat_map all_regions (children t)

let rec strictly_nested t =
  List.for_all
    (fun c ->
      Pat.Region.strictly_includes (region t) (region c) && strictly_nested c)
    (children t)

let pp ?keep ppf t =
  let visible symbol =
    match keep with None -> true | Some names -> List.mem symbol names
  in
  (* children promoted through hidden nodes *)
  let rec visible_children node =
    List.concat_map
      (fun c -> if visible c.symbol then [ c ] else visible_children c)
      (children node)
  in
  let rec go indent node =
    Format.fprintf ppf "%s%s [%d,%d)@." indent node.symbol node.start node.stop;
    List.iter (go (indent ^ "  ")) (visible_children node)
  in
  if visible t.symbol then go "" t
  else List.iter (go "") (visible_children t)
