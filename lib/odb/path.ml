type step = Attr of string | Star | Any | Plus of string
type t = step list

(* A star item that sits inline in its parent's rule produces a field
   whose name equals its elements' tag (SGML's [Section] inside
   [Section]).  Such a set has no region of its own, so for the
   path-step/region-level correspondence the field is transparent: one
   step lands on the elements. *)
let field_step_values name v =
  match v with
  | Value.Set elts
    when elts <> []
         && List.for_all
              (function Value.Variant (tag, _) -> tag = name | _ -> false)
              elts ->
      List.map (function Value.Variant (_, x) -> x | x -> x) elts
  | Value.Set [] -> []
  | v -> [ v ]

(* One region level down: tuple attributes keep their values (each
   non-inline attribute is a region), inline star fields contribute
   their elements, and a set is entered by unwrapping its elements. *)
let rec children v =
  match v with
  | Value.Tuple fields ->
      List.concat_map (fun (k, v) -> field_step_values k v) fields
  | Value.Set elts ->
      List.map (function Value.Variant (_, x) -> x | x -> x) elts
  | Value.Variant (_, x) -> children x
  | Value.Str _ -> []

let rec descendants v = v :: List.concat_map descendants (children v)

let rec step_values step v =
  match step with
  | Attr a -> begin
      match v with
      | Value.Tuple fields -> begin
          match List.assoc_opt a fields with
          | Some x -> field_step_values a x
          | None -> []
        end
      | Value.Set elts -> List.concat_map (step_values (Attr a)) elts
      | Value.Variant (tag, x) -> if tag = a then [ x ] else []
      | Value.Str _ -> []
    end
  | Star -> descendants v
  | Any -> children v
  | Plus a ->
      (* one or more [Attr a] steps: the transitive closure of the
         attribute edge (values are finite trees, so this terminates) *)
      let rec closure v =
        let one = step_values (Attr a) v in
        one @ List.concat_map closure one
      in
      closure v

let navigate root path =
  List.fold_left
    (fun values step -> List.concat_map (step_values step) values)
    [ root ] path

let is_any_component s =
  String.length s >= 2
  && s.[0] = 'X'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 1 (String.length s - 1))

let of_strings parts =
  List.map
    (fun part ->
      let n = String.length part in
      if n > 0 && part.[0] = '*' then Star
      else if is_any_component part then Any
      else if n > 1 && part.[n - 1] = '+' then
        Plus (String.sub part 0 (n - 1))
      else Attr part)
    parts

let step_to_string = function
  | Attr a -> a
  | Star -> "*X"
  | Any -> "X1"
  | Plus a -> a ^ "+"

let to_string path = String.concat "." (List.map step_to_string path)
let pp ppf path = Format.pp_print_string ppf (to_string path)
