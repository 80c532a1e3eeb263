module Smap = Map.Make (String)

type t = {
  text : Text.t;
  word_index : Word_index.t;
  regions : Region_set.t Smap.t;
  forest : Region_set.forest;
}

let region_map bindings =
  List.fold_left
    (fun acc (name, set) ->
      if Smap.mem name acc then
        invalid_arg ("Instance.create: duplicate region name " ^ name)
      else Smap.add name set acc)
    Smap.empty bindings

let forest_of regions =
  Region_set.forest
    (Region_set.merge (Smap.fold (fun _ set acc -> set :: acc) regions []))

let create text bindings =
  let regions = region_map bindings in
  { text; word_index = Word_index.build text; regions; forest = forest_of regions }

(* Every tail region follows every node, so the forest grows by the
   tail's nodes alone. *)
let append t word_index tail =
  let regions =
    List.fold_left
      (fun regions (name, set) ->
        Smap.update name
          (function
            | Some old -> Some (Region_set.union old set)
            | None -> invalid_arg ("Instance.append: unknown region name " ^ name))
          regions)
      t.regions tail
  in
  let forest =
    Region_set.forest_append t.forest (Region_set.merge (List.map snd tail))
  in
  { text = Word_index.text word_index; word_index; regions; forest }

let create_with_forest text ~forest bindings =
  { text; word_index = Word_index.build text; regions = region_map bindings; forest }

let text t = t.text
let word_index t = t.word_index
let names t = List.map fst (Smap.bindings t.regions)
let find t name = Smap.find name t.regions
let find_opt t name = Smap.find_opt name t.regions
let mem t name = Smap.mem name t.regions
let forest t = t.forest
let universe t = Region_set.nodes t.forest

let restrict t keep =
  let keep_set = List.fold_left (fun m k -> Smap.add k () m) Smap.empty keep in
  let regions = Smap.filter (fun name _ -> Smap.mem name keep_set) t.regions in
  { t with regions; forest = forest_of regions }

let add t name set =
  let regions = Smap.add name set t.regions in
  { t with regions; forest = forest_of regions }

let total_regions t =
  Smap.fold (fun _ set acc -> acc + Region_set.cardinal set) t.regions 0
