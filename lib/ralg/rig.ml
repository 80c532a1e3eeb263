module Smap = Map.Make (String)
module Sset = Set.Make (String)

type t = { nodes : Sset.t; succ : Sset.t Smap.t; pred : Sset.t Smap.t }

let create ~names ~edges =
  let nodes = Sset.of_list names in
  let check n =
    if not (Sset.mem n nodes) then
      invalid_arg ("Rig.create: edge endpoint not a node: " ^ n)
  in
  let add m a b =
    Smap.update a
      (function None -> Some (Sset.singleton b) | Some s -> Some (Sset.add b s))
      m
  in
  let succ, pred =
    List.fold_left
      (fun (succ, pred) (a, b) ->
        check a;
        check b;
        (add succ a b, add pred b a))
      (Smap.empty, Smap.empty) edges
  in
  { nodes; succ; pred }

let names t = Sset.elements t.nodes

let edges t =
  Smap.fold
    (fun a bs acc -> Sset.fold (fun b acc -> (a, b) :: acc) bs acc)
    t.succ []
  |> List.sort compare

let mem t n = Sset.mem n t.nodes

let successors t n =
  match Smap.find_opt n t.succ with None -> [] | Some s -> Sset.elements s

let predecessors t n =
  match Smap.find_opt n t.pred with None -> [] | Some s -> Sset.elements s

let has_edge t a b =
  match Smap.find_opt a t.succ with None -> false | Some s -> Sset.mem b s

let reverse t = { t with succ = t.pred; pred = t.succ }

(* Depth-first reachability with an interior-avoid set.  A walk of
   length >= 1 from [a] to [b] exists with all interior nodes outside
   [avoid].  [b] itself may be in [avoid] (it is an endpoint). *)
let reachable_avoiding t a b ~avoid =
  let avoid = Sset.of_list avoid in
  let visited = ref Sset.empty in
  let rec go n =
    (* n is reached as an interior candidate or the start *)
    List.exists
      (fun m ->
        if m = b then true
        else if Sset.mem m avoid || Sset.mem m !visited then false
        else begin
          visited := Sset.add m !visited;
          go m
        end)
      (successors t n)
  in
  go a

let reachable t a b = reachable_avoiding t a b ~avoid:[]

let only_walk_is_edge t a b =
  has_edge t a b
  && not (List.exists (fun x -> reachable t x b) (successors t a))

let all_walks_start_with_edge t a b =
  has_edge t a b
  && not
       (List.exists
          (fun x -> x <> b && reachable t x b)
          (successors t a))

let separator t ~src ~dst ~via =
  if via = src || via = dst then true
  else not (reachable_avoiding t src dst ~avoid:[ via ])

let count_paths_avoiding t a b ~avoid_interior =
  (* Restrict to nodes usable as interior: reachable from [a] and
     co-reachable to [b] without touching avoided interiors.  If the
     restricted subgraph has a cycle, infinitely many walks exist. *)
  let allowed n = (not (avoid_interior n)) && n <> a && n <> b in
  (* usable interior nodes *)
  let from_a = ref Sset.empty in
  let rec dfs n =
    List.iter
      (fun m ->
        if allowed m && not (Sset.mem m !from_a) then begin
          from_a := Sset.add m !from_a;
          dfs m
        end)
      (successors t n)
  in
  dfs a;
  let to_b = ref Sset.empty in
  let rec dfs_back n =
    List.iter
      (fun m ->
        if allowed m && not (Sset.mem m !to_b) then begin
          to_b := Sset.add m !to_b;
          dfs_back m
        end)
      (predecessors t n)
  in
  dfs_back b;
  let interior = Sset.inter !from_a !to_b in
  (* cycle detection among interior nodes *)
  let color = Hashtbl.create 16 in
  let rec has_cycle n =
    match Hashtbl.find_opt color n with
    | Some `Done -> false
    | Some `Active -> true
    | None ->
        Hashtbl.replace color n `Active;
        let c =
          List.exists
            (fun m -> Sset.mem m interior && has_cycle m)
            (successors t n)
        in
        Hashtbl.replace color n `Done;
        c
  in
  if Sset.exists has_cycle interior then `Many
  else begin
    (* DAG over interior ∪ {a, b}: count walks a->b, capped at 2.  Count
       from each node the number of walk suffixes reaching b. *)
    let memo = Hashtbl.create 16 in
    let rec count n =
      (* number of walks from n to b of length >= 1, capped *)
      match Hashtbl.find_opt memo n with
      | Some c -> c
      | None ->
          let c =
            List.fold_left
              (fun acc m ->
                if acc >= 2 then acc
                else if m = b then acc + 1
                else if Sset.mem m interior then min 2 (acc + count m)
                else acc)
              0 (successors t n)
          in
          Hashtbl.replace memo n c;
          c
    in
    match count a with 0 -> `Zero | 1 -> `One | _ -> `Many
  end

(* One avoiding search per kept source: explore from [a] through nodes
   outside [keep]; every node met on the way — a successor of [a] or of
   an explored interior — ends such a walk.  The per-pair definition
   is [reachable_avoiding t a b ~avoid:keep] for each kept [b]. *)
let partial t ~keep =
  let keep_set = Sset.of_list keep in
  let keep = Sset.inter keep_set t.nodes in
  let targets a =
    let explored = ref Sset.empty and met = ref Sset.empty in
    let rec go n =
      List.iter
        (fun m ->
          met := Sset.add m !met;
          if not (Sset.mem m keep_set || Sset.mem m !explored) then begin
            explored := Sset.add m !explored;
            go m
          end)
        (successors t n)
    in
    go a;
    Sset.inter !met keep
  in
  let edges =
    Sset.fold
      (fun a acc -> Sset.fold (fun b acc -> (a, b) :: acc) (targets a) acc)
      keep []
  in
  create ~names:(Sset.elements keep) ~edges

let interior_nodes t a b =
  List.filter
    (fun x -> x <> a && x <> b && reachable t a x && reachable t x b)
    (names t)

let to_dot ?(highlight = []) t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph rig {\n  rankdir=TB;\n  node [shape=box];\n";
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  %S;\n" n))
    (names t);
  List.iter
    (fun (a, b) ->
      let attrs =
        if List.mem (a, b) highlight then
          " [style=\"dashed,bold\", color=blue]"
        else ""
      in
      Buffer.add_string buf (Printf.sprintf "  %S -> %S%s;\n" a b attrs))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>nodes: %a@,edges: %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_string)
    (names t)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (a, b) -> Format.fprintf ppf "%s->%s" a b))
    (edges t)
