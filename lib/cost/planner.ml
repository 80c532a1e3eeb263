type mode = Rules | Cost_based

let mode_of_string = function
  | "rules" -> Ok Rules
  | "cost" -> Ok Cost_based
  | s -> Error (Printf.sprintf "unknown plan mode %S (expected rules|cost)" s)

type decision = {
  chosen : Ralg.Expr.t;
  rewrites : Ralg.Optimizer.rewrite list;
  tag : string;
  est : Model.est;
  considered : int;
}

(* All variants of [e] obtained by swapping the operands of up to
   [max_sites] commutative set operations (∪/∩ — swap-sound because
   region sets are sets: same denotation, same canonical row order).
   Exponential in sites, so both the site count and the produced list
   are capped. *)
let swap_variants ?(max_sites = 3) ?(max_variants = 8) e =
  let open Ralg.Expr in
  let sites = ref 0 in
  (* returns every version of [e] reachable by independent swaps *)
  let rec go e =
    match e with
    | Name _ -> [ e ]
    | Select (s, inner) -> List.map (fun i -> Select (s, i)) (go inner)
    | Innermost inner -> List.map (fun i -> Innermost i) (go inner)
    | Outermost inner -> List.map (fun i -> Outermost i) (go inner)
    | Chain (a, op, b) ->
        List.concat_map
          (fun a -> List.map (fun b -> Chain (a, op, b)) (go b))
          (go a)
    | Chain_strict (a, op, b) ->
        List.concat_map
          (fun a -> List.map (fun b -> Chain_strict (a, op, b)) (go b))
          (go a)
    | At_depth (n, a, b) ->
        List.concat_map
          (fun a -> List.map (fun b -> At_depth (n, a, b)) (go b))
          (go a)
    | Setop (((Union | Inter) as op), a, b) ->
        let swap_here = !sites < max_sites in
        if swap_here then incr sites;
        List.concat_map
          (fun a ->
            List.concat_map
              (fun b ->
                if swap_here then [ Setop (op, a, b); Setop (op, b, a) ]
                else [ Setop (op, a, b) ])
              (go b))
          (go a)
    | Setop (Diff, a, b) ->
        List.concat_map
          (fun a -> List.map (fun b -> Setop (Diff, a, b)) (go b))
          (go a)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take max_variants (go e)

(* candidate, its Prop 3.5 rewrites, provenance tag *)
type candidates = (Ralg.Expr.t * Ralg.Optimizer.rewrite list * string) list

let candidates ~rig e =
  let rules, rewrites = Ralg.Optimizer.optimize_logged rig e in
  (* rules first, so ties keep today's behaviour *)
  [ (rules, rewrites, "rules") ]
  @ (if Ralg.Expr.equal e rules then [] else [ (e, [], "original") ])
  @ List.filter_map
      (fun v ->
        if Ralg.Expr.equal v rules then None
        else Some (v, rewrites, "operand-swap"))
      (swap_variants rules)

let choose ~stats candidates =
  let scored =
    List.map (fun (c, rws, tag) -> (c, rws, tag, Model.estimate stats c)) candidates
  in
  let best =
    List.fold_left
      (fun acc (c, rws, tag, est) ->
        match acc with
        | Some (_, _, _, b) when b.Model.cost <= est.Model.cost -> acc
        | _ -> Some (c, rws, tag, est))
      None scored
  in
  match best with
  | Some (chosen, rewrites, tag, est) ->
      { chosen; rewrites; tag; est; considered = List.length scored }
  | None -> assert false
