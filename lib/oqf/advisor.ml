module Sset = Set.Make (String)

(* Head region name of an expression (the name whose regions it
   returns), when syntactically evident. *)
let rec head_name = function
  | Ralg.Expr.Name n -> Some n
  | Ralg.Expr.Select (_, e)
  | Ralg.Expr.Innermost e
  | Ralg.Expr.Outermost e -> head_name e
  | Ralg.Expr.Chain (a, _, _)
  | Ralg.Expr.Chain_strict (a, _, _)
  | Ralg.Expr.At_depth (_, a, _) ->
      head_name a
  | Ralg.Expr.Setop (_, a, _) -> head_name a

(* Direct-inclusion pairs surviving in an expression. *)
let rec direct_pairs acc = function
  | Ralg.Expr.Name _ -> acc
  | Ralg.Expr.Select (_, e) | Ralg.Expr.Innermost e | Ralg.Expr.Outermost e ->
      direct_pairs acc e
  | Ralg.Expr.Setop (_, a, b) | Ralg.Expr.At_depth (_, a, b) ->
      direct_pairs (direct_pairs acc a) b
  | Ralg.Expr.Chain (a, op, b) | Ralg.Expr.Chain_strict (a, op, b) ->
      let acc = direct_pairs (direct_pairs acc a) b in
      if Ralg.Expr.is_direct op then begin
        match (head_name a, head_name b) with
        | Some x, Some y ->
            (* orient as (outer, inner) *)
            let pair =
              match op with
              | Ralg.Expr.Directly_including -> (x, y)
              | Ralg.Expr.Directly_included -> (y, x)
              | _ -> assert false
            in
            pair :: acc
        | _ -> acc
      end
      else acc

(* Depth-constrained pairs: counting the regions strictly between two
   endpoints is faithful only when every name on a walk between them is
   indexed, so the advisor must include all interior nodes. *)
let rec depth_pairs acc = function
  | Ralg.Expr.Name _ -> acc
  | Ralg.Expr.Select (_, e) | Ralg.Expr.Innermost e | Ralg.Expr.Outermost e ->
      depth_pairs acc e
  | Ralg.Expr.Setop (_, a, b)
  | Ralg.Expr.Chain (a, _, b)
  | Ralg.Expr.Chain_strict (a, _, b) ->
      depth_pairs (depth_pairs acc a) b
  | Ralg.Expr.At_depth (_, a, b) ->
      let acc = depth_pairs (depth_pairs acc a) b in
      (match (head_name a, head_name b) with
      | Some x, Some y -> (x, y) :: acc
      | _ -> acc)

(* Greedy §7 blocker selection: extend [chosen] until every full-RIG
   walk of length >= 2 from [x] to [y] passes through a chosen node. *)
let cover_pair full_rig chosen (x, y) =
  (* a walk of length >= 2 with interior avoiding [chosen] exists iff
     some successor chain does; pick interior nodes until none remains *)
  let exists_uncovered chosen =
    List.exists
      (fun z ->
        if Sset.mem z chosen then false
        else if z = y then
          (* x -> y -> … -> y requires a cycle through y avoiding chosen *)
          Ralg.Rig.reachable_avoiding full_rig y y
            ~avoid:(Sset.elements chosen)
        else
          Ralg.Rig.reachable_avoiding full_rig z y
            ~avoid:(Sset.elements chosen))
      (Ralg.Rig.successors full_rig x)
  in
  let pick chosen =
    List.find_opt
      (fun n ->
        (not (Sset.mem n chosen))
        && n <> x && n <> y
        && Ralg.Rig.reachable_avoiding full_rig x n
             ~avoid:(Sset.elements chosen)
        && Ralg.Rig.reachable_avoiding full_rig n y
             ~avoid:(Sset.elements chosen))
      (Ralg.Rig.names full_rig)
  in
  let rec go chosen =
    if not (exists_uncovered chosen) then chosen
    else begin
      match pick chosen with
      | Some n -> go (Sset.add n chosen)
      | None -> chosen (* cannot improve further *)
    end
  in
  go chosen

let optimized_var_exprs view q =
  let index = Fschema.Grammar.indexable view.Fschema.View.grammar in
  let env = Compile.env view ~index in
  match Compile.compile env q with
  | Error e -> Error (Compile.error_message e)
  | Ok plan ->
      let rig = Fschema.Resolver.rig env.Compile.paths in
      Ok
        ( env,
          plan,
          List.filter_map
            (fun (vp : Plan.var_plan) ->
              match vp.Plan.candidates with
              | Plan.Expr e ->
                  Some (vp.Plan.var, e, Ralg.Optimizer.optimize rig e)
              | Plan.All | Plan.Empty -> None)
            plan.Plan.var_plans )

let required_indices view q =
  match optimized_var_exprs view q with
  | Error e -> Error e
  | Ok (env, _plan, exprs) ->
      let full_rig = Fschema.Resolver.rig env.Compile.paths in
      let base =
        List.fold_left
          (fun acc (_, _, e) ->
            List.fold_left (fun acc n -> Sset.add n acc) acc (Ralg.Expr.names e))
          Sset.empty exprs
      in
      (* depth-constrained links count indexed regions between their
         endpoints: every interior name must be indexed *)
      let base =
        List.fold_left
          (fun acc (_, _, e) ->
            List.fold_left
              (fun acc (x, y) ->
                List.fold_left
                  (fun acc n -> Sset.add n acc)
                  acc
                  (Ralg.Rig.interior_nodes full_rig x y))
              acc (depth_pairs [] e))
          base exprs
      in
      let pairs =
        List.concat_map (fun (_, _, e) -> direct_pairs [] e) exprs
      in
      let chosen = List.fold_left (cover_pair full_rig) base pairs in
      Ok (Sset.elements chosen)

let explain view ~index q =
  match optimized_var_exprs view q with
  | Error e -> Error e
  | Ok (_, _, full_exprs) -> begin
      let env = Compile.env view ~index in
      match Compile.compile env q with
      | Error e -> Error (Compile.error_message e)
      | Ok plan ->
          let buf = Buffer.create 512 in
          let ppf = Format.formatter_of_buffer buf in
          Format.fprintf ppf "%a@." Plan.pp plan;
          let rig = env.Compile.query_rig in
          (* no file is read: price with uniform statistics *)
          let uniform = Oqf_cost.Stats.uniform () in
          let cost e = (Oqf_cost.Model.estimate uniform e).Oqf_cost.Model.cost in
          List.iter
            (fun (vp : Plan.var_plan) ->
              match vp.Plan.candidates with
              | Plan.Expr e ->
                  let opt = Ralg.Optimizer.optimize rig e in
                  Format.fprintf ppf
                    "var %s:@.  naive:     %a@.  optimized: %a@.  cost: %.1f \
                     -> %.1f@.  trivially empty: %b@."
                    vp.Plan.var Ralg.Expr.pp e Ralg.Expr.pp opt (cost e)
                    (cost opt)
                    (Ralg.Trivial.check rig e)
              | Plan.All ->
                  Format.fprintf ppf "var %s: full scan@." vp.Plan.var
              | Plan.Empty ->
                  Format.fprintf ppf "var %s: provably empty@." vp.Plan.var)
            plan.Plan.var_plans;
          (match required_indices view q with
          | Ok names ->
              Format.fprintf ppf
                "sufficient indices for exact evaluation: %s@."
                (String.concat ", " names)
          | Error _ -> ());
          List.iter
            (fun (v, naive, opt) ->
              Format.fprintf ppf
                "under full indexing, %s: %a  ==>  %a@." v Ralg.Expr.pp naive
                Ralg.Expr.pp opt)
            full_exprs;
          Format.pp_print_flush ppf ();
          Ok (Buffer.contents buf)
    end
