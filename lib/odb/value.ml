type t =
  | Str of string
  | Tuple of (string * t) list
  | Set of t list
  | Variant of string * t

let rec normalize = function
  | Str _ as v -> v
  | Tuple fields -> Tuple (List.map (fun (k, v) -> (k, normalize v)) fields)
  | Variant (tag, v) -> Variant (tag, normalize v)
  | Set elts ->
      let elts = List.map normalize elts in
      Set (List.sort_uniq raw_compare elts)

and raw_compare a b =
  match (a, b) with
  | Str x, Str y -> String.compare x y
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Tuple x, Tuple y ->
      List.compare
        (fun (k1, v1) (k2, v2) ->
          let c = String.compare k1 k2 in
          if c <> 0 then c else raw_compare v1 v2)
        x y
  | Tuple _, _ -> -1
  | _, Tuple _ -> 1
  | Set x, Set y -> List.compare raw_compare x y
  | Set _, _ -> -1
  | _, Set _ -> 1
  | Variant (t1, v1), Variant (t2, v2) ->
      let c = String.compare t1 t2 in
      if c <> 0 then c else raw_compare v1 v2

let compare_normalized = raw_compare
let compare a b = raw_compare (normalize a) (normalize b)
let equal a b = compare a b = 0

let field v name =
  match v with Tuple fields -> List.assoc_opt name fields | _ -> None

let rec pp ppf = function
  | Str s -> Format.fprintf ppf "%S" s
  | Tuple fields ->
      Format.fprintf ppf "@[<hv 1>{%a}@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           (fun ppf (k, v) -> Format.fprintf ppf "%s: %a" k pp v))
        fields
  | Set elts ->
      Format.fprintf ppf "@[<hv 1>#{%a}@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           pp)
        elts
  | Variant (tag, v) -> Format.fprintf ppf "%s(%a)" tag pp v

let rec iter_display emit = function
  | Str s -> emit s
  | Tuple fields ->
      emit "{";
      iter_fields emit fields;
      emit "}"
  | Set elts ->
      emit "{";
      iter_elts emit elts;
      emit "}"
  | Variant (_, v) -> iter_display emit v

and iter_fields emit = function
  | [] -> ()
  | (k, v) :: rest ->
      emit k;
      emit "=";
      iter_display emit v;
      if not (List.is_empty rest) then begin
        emit ", ";
        iter_fields emit rest
      end

and iter_elts emit = function
  | [] -> ()
  | v :: rest ->
      iter_display emit v;
      if not (List.is_empty rest) then begin
        emit "; ";
        iter_elts emit rest
      end

let to_display_string = function
  | Str s -> s
  | v ->
      let buf = Buffer.create 64 in
      iter_display (Buffer.add_string buf) v;
      Buffer.contents buf

let str s = Str s
let tuple fields = Tuple fields
let set elts = Set elts
let variant tag v = Variant (tag, v)
