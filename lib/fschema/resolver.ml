module Smap = Map.Make (String)

type rel = Child | Depth of int | Below | Closure
type link = { name : string; rel : rel; named : bool; exact : bool }
type ending = Value of { atomic : bool } | Inside
type resolution = { links : link list; ending : ending }
type reason = Unknown_attribute | Past_string | No_attribute
type nothing = { at : int; reason : reason }
type shape = Str | Set of string | Tuple of (string * Schema_types.ty) list
type target = Region of string | Text

type t = {
  grammar : Grammar.t;
  decls : Schema_types.ty Smap.t;
  rig : Ralg.Rig.t;
  shapes : (string list * shape) list Smap.t;
      (** per region name: the shapes its value can take *)
  children : (string * target * string list) list Smap.t;
      (** per region name: the values one level below its value *)
  below : target list Smap.t;
      (** per region name: what zero or more steps from its value reach *)
}

(* ------------------------------------------------------------------ *)
(* Values in region terms                                               *)

(* The shapes a value of region [n] can take, each with the carrier
   regions between [n] and the region whose rule builds the value.  A
   union (or a pass-through into one) has several. *)
let shapes_of decls n =
  let rec of_ty seen carriers = function
    | Schema_types.Named m ->
        if List.mem m seen then []
        else of_ty (m :: seen) (m :: carriers) (Smap.find m decls)
    | Schema_types.Union_ty alts -> List.concat_map (of_ty seen carriers) alts
    | Schema_types.Str_ty -> [ (List.rev carriers, Str) ]
    | Schema_types.Set_ty (Schema_types.Named m) -> [ (List.rev carriers, Set m) ]
    | Schema_types.Set_ty _ -> []
    | Schema_types.Tuple_ty fields -> [ (List.rev carriers, Tuple fields) ]
  in
  of_ty [ n ] [] (Smap.find n decls)

(* The values one level below a value of region [n], as
   {!Odb.Path}'s [children] finds them: the attribute that reaches
   each, and the regions from below [n] down to it. *)
let children_of shapes n =
  (* a field whose value is a set of elements of its own name is
     entered to the elements *)
  let field carriers m =
    List.sort_uniq compare
      (List.map
         (function
           | inner, Set e when e = m ->
               (m, Region m, carriers @ (m :: inner) @ [ m ])
           | _ -> (m, Region m, carriers @ [ m ]))
         (shapes m))
  in
  List.concat_map
    (fun (carriers, shape) ->
      match shape with
      | Str -> []
      | Set m -> [ (m, Region m, carriers @ [ m ]) ]
      | Tuple fields ->
          List.concat_map
            (fun (k, ty) ->
              match ty with
              | Schema_types.Named m -> field carriers m
              | Schema_types.Set_ty (Schema_types.Named m) ->
                  [ (m, Region m, carriers @ [ m ]) ]
              | _ -> [ (k, Text, carriers) ])
            fields)
    (shapes n)

(* What zero or more steps from a value of region [n] reach. *)
let below_of children n =
  let rec go seen = function
    | [] -> seen
    | Text :: rest -> go seen rest
    | Region m :: rest ->
        let next =
          List.filter_map
            (fun (_, at, _) -> if List.mem at seen then None else Some at)
            (children m)
        in
        go (List.sort_uniq compare (next @ seen)) (rest @ next)
  in
  go [ Region n ] [ Region n ]

let make grammar =
  let decls = Smap.of_seq (List.to_seq (Schema_types.of_grammar grammar)) in
  let find m n = Option.value ~default:[] (Smap.find_opt n m) in
  let shapes = Smap.mapi (fun n _ -> shapes_of decls n) decls in
  let children = Smap.mapi (fun n _ -> children_of (find shapes) n) decls in
  {
    grammar;
    decls;
    rig = Rig_of_grammar.full grammar;
    shapes;
    children;
    below = Smap.mapi (fun n _ -> below_of (find children) n) decls;
  }

let rig t = t.rig
let shapes t n = Option.value ~default:[] (Smap.find_opt n t.shapes)
let children t n = Option.value ~default:[] (Smap.find_opt n t.children)
let below t n = Option.value ~default:[ Region n ] (Smap.find_opt n t.below)

let carrier t n =
  match Smap.find_opt n t.decls with
  | Some (Schema_types.Named m) -> Some m
  | _ -> None

let uniform t n = List.compare_length_with (shapes t n) 1 = 0

let atomic t n =
  match Grammar.rules_of t.grammar n with
  | [] -> false
  | rules -> List.for_all (function Grammar.Token _ -> true | Grammar.Seq _ -> false) rules

(* ------------------------------------------------------------------ *)
(* Steps over sets of positions                                         *)

(* What the steps since the anchor reach, with the regions from the
   anchor down to it while that is one list (not after a [*X]). *)
type pos = { at : target; path : string list option }

let step t pick positions =
  List.sort_uniq compare
    (List.concat_map
       (fun p ->
         match p.at with
         | Text -> []
         | Region n ->
             List.filter_map
               (fun (k, at, path) ->
                 if pick k then
                   Some { at; path = Option.map (fun above -> above @ path) p.path }
                 else None)
               (children t n))
       positions)

(* Every position reachable by zero or more steps. *)
let closure t positions =
  List.sort_uniq compare
    (List.concat_map
       (fun p ->
         List.map
           (fun at -> { at; path = None })
           (match p.at with Text -> [ Text ] | Region n -> below t n))
       positions)

(* Every [a] region below an [s] region is a value the path reaches:
   each possible parent of one has [a] as a plain field (not a
   pass-through wrapper of it, not a union). *)
let all_below_reached t s a =
  List.for_all
    (fun p ->
      (not (p = s || Ralg.Rig.reachable t.rig s p))
      || uniform t p
         && List.exists (fun (k, _, path) -> k = a && path = [ a ]) (children t p))
    (Ralg.Rig.predecessors t.rig a)

(* The links for a named step [a] from [anchor], after the wildcard
   steps [group] (latest first) reached [next]. *)
let links_of t ~anchor ~group ~plus a next =
  let link rel exact = { name = a; rel; named = true; exact } in
  let paths = List.sort_uniq compare (List.map (fun p -> p.path) next) in
  match (group, plus, paths) with
  | [], false, [ Some path ] ->
      let last = List.length path - 1 in
      List.mapi
        (fun i name ->
          { name; rel = Child; named = i = last; exact = uniform t anchor })
        path
  | [], true, _ ->
      (* every walk from the anchor down to [a] passes only [a]s *)
      let exact =
        List.for_all
          (fun x ->
            x = a
            || not (Ralg.Rig.reachable t.rig anchor x && Ralg.Rig.reachable t.rig x a))
          (Ralg.Rig.names t.rig)
        && all_below_reached t anchor a
      in
      [ link Closure exact ]
  | [ Odb.Path.Star ], false, _ -> [ link Below (all_below_reached t anchor a) ]
  | _, false, Some first :: _
    when List.for_all (fun s -> s = Odb.Path.Any) group
         && List.for_all
              (function
                | Some p -> List.compare_lengths p first = 0 | None -> false)
              paths ->
      let len = List.length first in
      let names = List.concat_map (function Some p -> p | None -> []) paths in
      let exact =
        List.for_all (uniform t) (anchor :: List.filter (( <> ) a) names)
        && Ralg.Rig.count_walks t.rig anchor a len = List.length paths
      in
      [ link (Depth (len - 1)) exact ]
  | _ -> [ link Below false ]

let resolve t ~root path =
  let known a = a = "text" || Smap.mem a t.decls in
  let why positions =
    if
      List.for_all
        (fun p ->
          match p.at with
          | Text -> true
          | Region n -> List.for_all (fun (_, s) -> s = Str) (shapes t n))
        positions
    then Past_string
    else No_attribute
  in
  let at_region n = [ { at = Region n; path = Some [] } ] in
  let finish anchor group positions links =
    match (group, positions) with
    | [], [ { at = Region n; _ } ] ->
        let carriers =
          match shapes t n with [ (carriers, _) ] -> carriers | _ -> []
        in
        let links =
          links
          @ List.map
              (fun name -> { name; rel = Child; named = false; exact = true })
              carriers
        in
        let last = List.fold_left (fun _ l -> l.name) anchor links in
        { links; ending = Value { atomic = atomic t last } }
    | _ -> { links; ending = Inside }
  in
  let rec go i anchor group positions links = function
    | [] -> Ok (finish anchor group positions links)
    | s :: rest -> begin
        let fail reason = Error { at = i; reason } in
        match s with
        | Odb.Path.Star ->
            go (i + 1) anchor (s :: group) (closure t positions) links rest
        | Odb.Path.Any -> begin
            match step t (fun _ -> true) positions with
            | [] -> fail (why positions)
            | next -> go (i + 1) anchor (s :: group) next links rest
          end
        | Odb.Path.Attr a | Odb.Path.Plus a when not (known a) ->
            fail Unknown_attribute
        | Odb.Path.Attr a | Odb.Path.Plus a -> begin
            let plus = match s with Odb.Path.Plus _ -> true | _ -> false in
            match step t (String.equal a) positions with
            | [] -> fail (why positions)
            | next when List.exists (fun p -> p.at = Text) next ->
                (* an anonymous token field: no region below the anchor
                   names it *)
                go (i + 1) anchor [] next links rest
            | next ->
                go (i + 1) a [] (at_region a)
                  (links @ links_of t ~anchor ~group ~plus a next)
                  rest
          end
      end
  in
  go 0 root [] (at_region root) [] path
