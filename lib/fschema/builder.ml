let rec value_of_tree text (node : Parse_tree.t) =
  match node.content with
  | Parse_tree.Leaf ->
      Odb.Value.Str
        (Pat.Text.sub text ~pos:node.start ~len:(node.stop - node.start))
  | Parse_tree.Branch branches -> begin
      let named =
        List.map
          (function
            | Parse_tree.Child c -> (c.Parse_tree.symbol, value_of_branch text (Parse_tree.Child c))
            | Parse_tree.Children (n, _) as b -> (n, value_of_branch text b)
            | Parse_tree.Text (a, b) ->
                ("text", Odb.Value.Str (Pat.Text.sub text ~pos:a ~len:(b - a))))
          branches
      in
      match named with
      | [ (_, v) ] -> v
      | fields -> Odb.Value.Tuple fields
    end

and value_of_branch text = function
  | Parse_tree.Child c -> value_of_tree text c
  | Parse_tree.Children (n, elems) ->
      Odb.Value.Set
        (List.map
           (fun e -> Odb.Value.Variant (n, value_of_tree text e))
           elems)
  | Parse_tree.Text (a, b) ->
      Odb.Value.Str (Pat.Text.sub text ~pos:a ~len:(b - a))

let scoped_regions tree ~name ~within =
  let out = ref [] in
  let rec go inside (node : Parse_tree.t) =
    let inside = inside || node.Parse_tree.symbol = within in
    if inside && node.Parse_tree.symbol = name then
      out := Parse_tree.region node :: !out;
    match node.Parse_tree.content with
    | Parse_tree.Leaf -> ()
    | Parse_tree.Branch branches ->
        List.iter
          (function
            | Parse_tree.Child c -> go inside c
            | Parse_tree.Children (_, cs) -> List.iter (go inside) cs
            | Parse_tree.Text _ -> ())
          branches
  in
  go false tree;
  List.rev !out

let regions_by_name tree ~keep =
  let buckets = Hashtbl.create 32 in
  List.iter (fun name -> Hashtbl.replace buckets name (ref [])) keep;
  let rec go (node : Parse_tree.t) =
    (match Hashtbl.find_opt buckets node.Parse_tree.symbol with
    | Some bucket -> bucket := Parse_tree.region node :: !bucket
    | None -> ());
    match node.Parse_tree.content with
    | Parse_tree.Leaf -> ()
    | Parse_tree.Branch branches ->
        List.iter
          (function
            | Parse_tree.Child c -> go c
            | Parse_tree.Children (_, cs) -> List.iter go cs
            | Parse_tree.Text _ -> ())
          branches
  in
  go tree;
  List.map (fun name -> (name, List.rev !(Hashtbl.find buckets name))) keep

let instance_of_tree text tree ~keep =
  Pat.Instance.create text
    (List.map
       (fun (name, spans) -> (name, Pat.Region_set.of_list spans))
       (regions_by_name tree ~keep:(List.sort_uniq String.compare keep)))

let load text tree ~class_of db =
  let rec go (node : Parse_tree.t) =
    (match class_of node.Parse_tree.symbol with
    | Some cls ->
        Odb.Database.insert db ~class_name:cls (value_of_tree text node)
    | None -> ());
    match node.content with
    | Parse_tree.Leaf -> ()
    | Parse_tree.Branch branches ->
        List.iter
          (function
            | Parse_tree.Child c -> go c
            | Parse_tree.Children (_, cs) -> List.iter go cs
            | Parse_tree.Text _ -> ())
          branches
  in
  go tree
