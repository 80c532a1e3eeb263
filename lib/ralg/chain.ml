type strength = Simple | Direct
type family = Up | Down
type element = { name : string; selection : Expr.selection option }

type t = {
  family : family;
  elements : element list;
  strengths : strength list;
}

let classify = function
  | Expr.Including -> Some (Up, Simple)
  | Expr.Directly_including -> Some (Up, Direct)
  | Expr.Included -> Some (Down, Simple)
  | Expr.Directly_included -> Some (Down, Direct)

let element_of_expr = function
  | Expr.Name n -> Some { name = n; selection = None }
  | Expr.Select (sel, Expr.Name n) -> Some { name = n; selection = Some sel }
  | _ -> None

let of_expr e =
  (* Walk the right spine of Chain nodes, requiring a single family and
     name-only left operands. *)
  let rec spine fam = function
    | Expr.Chain (left, op, right) -> begin
        match (classify op, element_of_expr left) with
        | Some (f, s), Some el when f = fam -> begin
            match spine fam right with
            | Some (els, ss) -> Some (el :: els, s :: ss)
            | None -> None
          end
        | _ -> None
      end
    | last -> begin
        match element_of_expr last with
        | Some el -> Some ([ el ], [])
        | None -> None
      end
  in
  match e with
  | Expr.Chain (_, op, _) -> begin
      match classify op with
      | None -> None
      | Some (fam, _) -> begin
          match spine fam e with
          | Some (elements, strengths) when List.length elements >= 2 ->
              Some { family = fam; elements; strengths }
          | _ -> None
        end
    end
  | _ -> None

let expr_of_element el =
  match el.selection with
  | None -> Expr.Name el.name
  | Some sel -> Expr.Select (sel, Expr.Name el.name)

let op_of family strength =
  match (family, strength) with
  | Up, Simple -> Expr.Including
  | Up, Direct -> Expr.Directly_including
  | Down, Simple -> Expr.Included
  | Down, Direct -> Expr.Directly_included

let to_expr t =
  let rec build elements strengths =
    match (elements, strengths) with
    | [ el ], [] -> expr_of_element el
    | el :: els, s :: ss ->
        Expr.Chain (expr_of_element el, op_of t.family s, build els ss)
    | _ -> invalid_arg "Chain.to_expr: mismatched lengths"
  in
  build t.elements t.strengths

let length t = List.length t.elements
