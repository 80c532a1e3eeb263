let pp ?(show_times = false) ~source ppf (o : Execute.outcome) =
  (* every node is priced by the one cost model over the source's
     planning statistics, in either plan mode *)
  let stats = Execute.stats source in
  let estimate e = (Oqf_cost.Model.estimate stats e).Oqf_cost.Model.cost in
  Format.fprintf ppf "%a@." Plan.pp o.Execute.plan;
  (* before [rewrites:] — the obs cram slices the output from that
     line on, and must stay byte-identical *)
  (match o.Execute.diagnostics with
  | [] -> Format.fprintf ppf "diagnostics: (none)@."
  | ds ->
      Format.fprintf ppf "diagnostics:@.";
      List.iter
        (fun d -> Format.fprintf ppf "  %a@." Analysis.Diagnostic.pp d)
        ds);
  (match o.Execute.rewrites with
  | [] -> Format.fprintf ppf "rewrites: (none)@."
  | rws ->
      Format.fprintf ppf "rewrites:@.";
      List.iter
        (fun (rw : Ralg.Optimizer.rewrite) ->
          Format.fprintf ppf "  %s: %s@." rw.Ralg.Optimizer.rule
            rw.Ralg.Optimizer.detail)
        rws);
  (match o.Execute.decisions with
  | [] ->
      if o.Execute.plan_mode = Oqf_cost.Planner.Cost_based then
        Format.fprintf ppf "cost plan: (no choices)@."
  | ds ->
      Format.fprintf ppf "cost plan:@.";
      List.iter
        (fun (label, (d : Oqf_cost.Planner.decision)) ->
          Format.fprintf ppf
            "  %s: %s (considered %d, est cost %.1f, est rows %.0f)@." label
            d.tag d.considered d.est.Oqf_cost.Model.cost
            d.est.Oqf_cost.Model.rows)
        ds);
  (match o.Execute.annotations with
  | [] -> ()
  | annots ->
      Format.fprintf ppf "analyze:@.";
      List.iter
        (fun (label, annot) ->
          Format.fprintf ppf "  %s: %s@." label
            (Ralg.Expr.to_string annot.Ralg.Annot.expr);
          let body =
            Format.asprintf "%a"
              (Ralg.Annot.pp ~estimate
                 ~est_rows:(Oqf_cost.Model.rows stats)
                 ~show_times)
              annot
          in
          String.split_on_char '\n' body
          |> List.iter (fun line ->
                 if line <> "" then Format.fprintf ppf "    %s@." line))
        annots;
      let sum f =
        List.fold_left (fun acc (_, a) -> acc + f a) 0 annots
      in
      Format.fprintf ppf "  analyzed totals: ops=%d cmps=%d lookups=%d@."
        (sum Ralg.Annot.total_ops) (sum Ralg.Annot.total_cmps)
        (sum Ralg.Annot.total_lookups));
  Format.fprintf ppf "candidates: %d  answers: %d%s@." o.Execute.candidates_count
    o.Execute.answers_count
    (if o.Execute.join_assisted then "  (join-assisted)" else "");
  Format.fprintf ppf "stats: %a@." Stdx.Stats.pp o.Execute.stats
