module G = Fschema.Grammar

let unreachable_diags grammar rig =
  let root = G.root grammar in
  G.nonterminals grammar
  |> List.filter (fun n -> n <> root && not (Ralg.Rig.reachable rig root n))
  |> List.map (fun n ->
         Diagnostic.make ~subject:n ~code:"OQF101"
           ~severity:Diagnostic.Warning
           "unreachable from the grammar root: no parsed file can contain a \
            region of this name")

let declared_rig_diags ~derived ~declared =
  let module Sset = Set.Make (String) in
  let mk detail msg =
    Diagnostic.make ~detail ~code:"OQF102" ~severity:Diagnostic.Error msg
  in
  let derived_names = Sset.of_list (Ralg.Rig.names derived)
  and declared_names = Sset.of_list (Ralg.Rig.names declared) in
  let missing_nodes =
    Sset.diff derived_names declared_names
    |> Sset.elements
    |> List.map (fun n ->
           mk n "declared RIG is missing a node the grammar derives")
  and extra_nodes =
    Sset.diff declared_names derived_names
    |> Sset.elements
    |> List.map (fun n ->
           mk n "declared RIG has a node the grammar does not define")
  in
  let edge_key (a, b) = a ^ " -> " ^ b in
  let diff_edges xs ys =
    List.filter (fun e -> not (List.mem e ys)) xs
  in
  let missing_edges =
    diff_edges (Ralg.Rig.edges derived) (Ralg.Rig.edges declared)
    |> List.map (fun e ->
           mk (edge_key e)
             "declared RIG is missing an edge the grammar derives \
              (rig_of_grammar, \xc2\xa74.2)")
  and extra_edges =
    diff_edges (Ralg.Rig.edges declared) (Ralg.Rig.edges derived)
    |> List.map (fun e ->
           mk (edge_key e)
             "declared RIG has an edge the grammar does not derive")
  in
  missing_nodes @ extra_nodes @ missing_edges @ extra_edges

let non_natural_diags grammar paths =
  List.concat_map
    (fun lhs ->
      let pass_through =
        match Fschema.Resolver.carrier paths lhs with
        | Some child ->
            [
              Diagnostic.make ~subject:lhs ~detail:("wraps " ^ child)
                ~code:"OQF103" ~severity:Diagnostic.Hint
                "pass-through wrapper rule: its database value is its \
                 single child's, so queries usually address the child";
            ]
        | None -> []
      in
      let anonymous_tokens =
        List.concat_map
          (function
            | G.Token _ -> []
            | G.Seq items ->
                List.filter_map
                  (function
                    | G.Tok _ ->
                        Some
                          (Diagnostic.make ~subject:lhs ~code:"OQF103"
                             ~severity:Diagnostic.Hint
                             "anonymous token field: it contributes a value \
                              but no named region, so the index cannot see \
                              past it")
                    | G.Lit _ | G.Nonterm _ | G.Star _ -> None)
                  items)
          (G.rules_of grammar lhs)
      in
      pass_through @ anonymous_tokens)
    (G.nonterminals grammar)

let check ?declared_rig (view : Fschema.View.t) =
  let grammar = view.Fschema.View.grammar in
  let paths = Fschema.Resolver.make grammar in
  let derived = Fschema.Resolver.rig paths in
  let declared =
    match declared_rig with
    | None -> []
    | Some declared -> declared_rig_diags ~derived ~declared
  in
  Diagnostic.sort
    (unreachable_diags grammar derived @ declared @ non_natural_diags grammar paths)
