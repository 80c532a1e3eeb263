(* Incremental maintenance for append-only sources.

   A schema is append-only when its root rule is a literal header
   followed by a starred element with no separator (the log and mbox
   schemas): appending whole elements to the file leaves every old
   region in place.  The appended tail is then parsed on its own — the
   header literal is prepended so the root rule applies, and the
   resulting element regions are shifted back to file offsets — the
   word index is extended rather than rebuilt, the old region sets are
   unioned with the tail's, and the region forest grows by the tail's
   nodes. *)

let append_shape grammar =
  match Fschema.Grammar.rules_of grammar (Fschema.Grammar.root grammar) with
  | [ Fschema.Grammar.Seq
        [
          Fschema.Grammar.Lit header;
          Fschema.Grammar.Star { nonterm; separator = None };
        ] ] ->
      Some (header, nonterm)
  | _ -> None

let shift_region k (r : Pat.Region.t) =
  Pat.Region.make ~start:(r.start + k) ~stop:(r.stop + k)

(* Whether a region of the old instance starts at or past [old_len]:
   only an empty one at the very end can, and the tail's regions would
   not all follow it. *)
let reaches_boundary old_instance ~old_len =
  let nodes =
    Pat.Region_set.to_array (Pat.Region_set.nodes (Pat.Instance.forest old_instance))
  in
  let n = Array.length nodes in
  n > 0 && nodes.(n - 1).Pat.Region.start >= old_len

let extend_instance view ~old_instance ~old_len new_text =
  let grammar = view.Fschema.View.grammar in
  match append_shape grammar with
  | None ->
      Error
        (Printf.sprintf "schema rooted at %s is not append-only"
           (Fschema.Grammar.root grammar))
  | Some (header, _element) ->
      let new_len = Pat.Text.length new_text in
      let covered = Pat.Text.length (Pat.Instance.text old_instance) in
      if new_len < old_len then Error "file shrank"
      else if covered <> old_len then
        Error
          (Printf.sprintf "the old index covers %d bytes, not %d" covered
             old_len)
      else if reaches_boundary old_instance ~old_len then
        Error "an old region starts at the append boundary"
      else begin
        let tail = Pat.Text.sub new_text ~pos:old_len ~len:(new_len - old_len) in
        let synthetic = Pat.Text.of_string (header ^ tail) in
        match Fschema.Parser_engine.parse grammar synthetic with
        | Error e ->
            Error
              ("appended tail does not parse: "
              ^ Fschema.Parser_engine.describe_error synthetic e)
        | Ok tree ->
            (* synthetic offset p >= |header| is file offset
               p - |header| + old_len *)
            let header_len = String.length header in
            let shift = old_len - header_len in
            let tail_sets =
              List.map
                (fun (name, regions) ->
                  ( name,
                    Pat.Region_set.of_list
                      (List.filter_map
                         (fun (r : Pat.Region.t) ->
                           if r.start >= header_len then
                             Some (shift_region shift r)
                           else None)
                         regions) ))
                (Fschema.Builder.regions_by_name tree
                   ~keep:(Pat.Instance.names old_instance))
            in
            let word_index =
              Pat.Word_index.extend
                (Pat.Instance.word_index old_instance)
                new_text ~old_len
            in
            Ok (Pat.Instance.append old_instance word_index tail_sets)
      end
