type row = Value.t list

let navigate_binding bindings (rp : Query.rooted_path) =
  match List.assoc_opt rp.var bindings with
  | None -> []
  | Some root -> Path.navigate root rp.path

let contains_word haystack needle =
  (* whole-word containment, consistent with the PAT word index *)
  let n = String.length haystack and m = String.length needle in
  let is_word_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let boundary i = i < 0 || i >= n || not (is_word_char haystack.[i]) in
  let rec matches_at i j =
    j = m || (haystack.[i + j] = needle.[j] && matches_at i (j + 1))
  in
  let rec go i =
    if i + m > n then false
    else if matches_at i 0 && boundary (i - 1) && boundary (i + m) then true
    else go (i + 1)
  in
  m > 0 && go 0

(* Every atomic string nested in a value: CONTAINS is full-text search
   over whatever the path reaches. *)
let rec strings_of acc = function
  | Value.Str s -> s :: acc
  | Value.Tuple fields -> List.fold_left (fun a (_, v) -> strings_of a v) acc fields
  | Value.Set elts -> List.fold_left strings_of acc elts
  | Value.Variant (_, v) -> strings_of acc v

let rec matches bindings = function
  | Query.True -> true
  | Query.Eq_const (rp, w) ->
      List.exists
        (function Value.Str s -> String.equal s w | _ -> false)
        (navigate_binding bindings rp)
  | Query.Contains (rp, w) ->
      List.exists
        (fun v -> List.exists (fun s -> contains_word s w) (strings_of [] v))
        (navigate_binding bindings rp)
  | Query.Starts_with (rp, w) ->
      List.exists
        (function Value.Str s -> String.starts_with ~prefix:w s | _ -> false)
        (navigate_binding bindings rp)
  | Query.Eq_paths (a, b) ->
      (* each side normalized once, not once per pair *)
      let normalized rp =
        List.map Value.normalize (navigate_binding bindings rp)
      in
      let va = normalized a and vb = normalized b in
      List.exists
        (fun x -> List.exists (fun y -> Value.compare_normalized x y = 0) vb)
        va
  | Query.And (a, b) -> matches bindings a && matches bindings b
  | Query.Or (a, b) -> matches bindings a || matches bindings b
  | Query.Not p -> not (matches bindings p)

let eval db (q : Query.t) =
  let rec product acc = function
    | [] -> [ List.rev acc ]
    | (cls, v) :: rest ->
        List.concat_map
          (fun obj -> product ((v, obj) :: acc) rest)
          (Database.extent db cls)
  in
  (* one row per combination of values reached by the SELECT items; a
     binding where some item reaches nothing yields no row *)
  let rec rows_of_items bindings = function
    | [] -> [ [] ]
    | rp :: rest ->
        let values = navigate_binding bindings rp in
        List.concat_map
          (fun v ->
            List.map (fun row -> Value.normalize v :: row)
              (rows_of_items bindings rest))
          values
  in
  let rows =
    List.concat_map
      (fun bindings ->
        if matches bindings q.Query.where then
          rows_of_items bindings q.Query.select
        else [])
      (product [] q.Query.from_)
  in
  (* the rows are normalized already *)
  List.sort_uniq (List.compare Value.compare_normalized) rows
