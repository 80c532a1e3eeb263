module Region = Pat.Region
module Region_set = Pat.Region_set

let satisfies_rig t ~edges =
  let u = Pat.Instance.universe t in
  let edge_mem a b = List.exists (fun (x, y) -> x = a && y = b) edges in
  let bindings =
    List.map (fun name -> (name, Pat.Instance.find t name)) (Pat.Instance.names t)
  in
  let violation = ref None in
  List.iter
    (fun (ni, ri) ->
      List.iter
        (fun (nj, rj) ->
          if !violation = None then
            Region_set.iter
              (fun r ->
                Region_set.iter
                  (fun s ->
                    if
                      !violation = None
                      && Region.strictly_includes r s
                      && (not (edge_mem ni nj))
                      &&
                      (* no indexed region strictly between *)
                      not
                        (Region_set.fold
                           (fun acc u_reg ->
                             acc
                             || Region.strictly_includes r u_reg
                                && Region.strictly_includes u_reg s)
                           false u)
                    then violation := Some (ni, nj))
                  rj)
              ri)
        bindings)
    bindings;
  !violation

let verify_against_rig view instance =
  let keep = Pat.Instance.names instance in
  let rig =
    Fschema.Rig_of_grammar.for_index view.Fschema.View.grammar ~keep
  in
  match satisfies_rig instance ~edges:(Ralg.Rig.edges rig) with
  | None -> Ok ()
  | Some (a, b) ->
      Error
        (Printf.sprintf
           "incremental result violates the RIG: %s directly includes %s \
            without an edge"
           a b)
