type error = { position : int; expected : string }

let pp_error ppf e =
  Format.fprintf ppf "parse failure at byte %d: expected %s" e.position
    e.expected

let describe_error text e =
  let s = Pat.Text.unsafe_contents text in
  let n = String.length s in
  let pos = min (max e.position 0) n in
  (* locate the line containing [pos] *)
  let line_start =
    match String.rindex_from_opt s (max 0 (pos - 1)) '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  let line_stop =
    match String.index_from_opt s (min pos (n - 1)) '\n' with
    | Some i -> i
    | None -> n
    | exception Invalid_argument _ -> n
  in
  let line_no =
    let count = ref 1 in
    String.iteri (fun i c -> if i < pos && c = '\n' then incr count) s;
    !count
  in
  let col = pos - line_start in
  let snippet =
    if line_stop > line_start then String.sub s line_start (line_stop - line_start)
    else ""
  in
  Printf.sprintf "parse failure at line %d, column %d: expected %s\n  %s\n  %s^"
    line_no (col + 1) e.expected snippet
    (String.make col ' ')

type ctx = {
  s : string;
  limit : int;
  grammar : Grammar.t;
  mutable best_pos : int;
  mutable best_expected : string;
}

let fail ctx pos expected =
  if pos >= ctx.best_pos then begin
    ctx.best_pos <- pos;
    ctx.best_expected <- expected
  end;
  None

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_ws ctx pos =
  let rec go p = if p < ctx.limit && is_ws ctx.s.[p] then go (p + 1) else p in
  go pos

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* Returns (span_start, span_stop) of the literal, or records failure. *)
let parse_lit ctx pos lit =
  let p = skip_ws ctx pos in
  let m = String.length lit in
  if p + m <= ctx.limit && String.sub ctx.s p m = lit then Some (p, p + m)
  else fail ctx p (Printf.sprintf "%S" lit)

let parse_token ctx pos spec =
  let p = skip_ws ctx pos in
  match spec with
  | Grammar.Word ->
      let rec stop q =
        if q < ctx.limit && is_word_char ctx.s.[q] then stop (q + 1) else q
      in
      let q = stop p in
      if q > p then Some ((p, q), q) else fail ctx p "a word"
  | Grammar.Until stops ->
      let rec scan q =
        if q < ctx.limit && not (List.mem ctx.s.[q] stops) then scan (q + 1)
        else q
      in
      let q = scan p in
      (* trim trailing whitespace from the token span *)
      let rec trim q = if q > p && is_ws ctx.s.[q - 1] then trim (q - 1) else q in
      let q' = trim q in
      if q' > p then Some ((p, q'), q) else fail ctx p "text content"

let rec parse_nonterm ctx name pos =
  let rec try_alts = function
    | [] -> fail ctx pos ("non-terminal " ^ name)
    | rhs :: rest -> begin
        match parse_rhs ctx name rhs pos with
        | Some _ as ok -> ok
        | None -> try_alts rest
      end
  in
  match Grammar.rules_of ctx.grammar name with
  | [] -> fail ctx pos ("defined non-terminal " ^ name)
  | alts -> try_alts alts

and parse_rhs ctx name rhs pos =
  match rhs with
  | Grammar.Token spec -> begin
      match parse_token ctx pos spec with
      | Some ((a, b), next) ->
          Some
            ( { Parse_tree.symbol = name; start = a; stop = b; content = Leaf },
              next )
      | None -> None
    end
  | Grammar.Seq items -> begin
      let lo = ref None and hi = ref None in
      let touch a b =
        (match !lo with None -> lo := Some a | Some _ -> ());
        hi := Some b
      in
      let rec go items pos acc =
        match items with
        | [] -> Some (List.rev acc, pos)
        | Grammar.Lit lit :: rest -> begin
            match parse_lit ctx pos lit with
            | Some (a, b) ->
                touch a b;
                go rest b acc
            | None -> None
          end
        | Grammar.Tok spec :: rest -> begin
            match parse_token ctx pos spec with
            | Some ((a, b), next) ->
                touch a b;
                go rest next (Parse_tree.Text (a, b) :: acc)
            | None -> None
          end
        | Grammar.Nonterm n :: rest -> begin
            match parse_nonterm ctx n pos with
            | Some (node, next) ->
                touch node.Parse_tree.start node.Parse_tree.stop;
                go rest next (Parse_tree.Child node :: acc)
            | None -> None
          end
        | Grammar.Star { nonterm; separator } :: rest -> begin
            (* one deadline poll per element: a whole-file parse (the
               naive fallback, a full scan) is a loop over the file's
               entries, so a task's timeout can cut it short *)
            let rec elems acc pos =
              Obs.Deadline.check ();
              match parse_nonterm ctx nonterm pos with
              | None -> (List.rev acc, pos)
              | Some (node, next) -> begin
                  touch node.Parse_tree.start node.Parse_tree.stop;
                  match separator with
                  | None -> elems (node :: acc) next
                  | Some sep -> begin
                      match parse_lit ctx next sep with
                      | Some (_, after_sep) -> begin
                          (* the separator commits only if another
                             element follows *)
                          match parse_nonterm ctx nonterm after_sep with
                          | Some (node2, next2) ->
                              touch node2.Parse_tree.start node2.Parse_tree.stop;
                              continue_with (node2 :: node :: acc) next2
                          | None -> (List.rev (node :: acc), next)
                        end
                      | None -> (List.rev (node :: acc), next)
                    end
                end
            and continue_with acc pos =
              Obs.Deadline.check ();
              match separator with
              | None -> elems acc pos
              | Some sep -> begin
                  match parse_lit ctx pos sep with
                  | Some (_, after_sep) -> begin
                      match parse_nonterm ctx nonterm after_sep with
                      | Some (node, next) ->
                          touch node.Parse_tree.start node.Parse_tree.stop;
                          continue_with (node :: acc) next
                      | None -> (List.rev acc, pos)
                    end
                  | None -> (List.rev acc, pos)
                end
            in
            let children, next = elems [] pos in
            go rest next (Parse_tree.Children (nonterm, children) :: acc)
          end
      in
      match go items pos [] with
      | None -> None
      | Some (branches, next) -> begin
          match (!lo, !hi) with
          | Some a, Some b ->
              Some
                ( {
                    Parse_tree.symbol = name;
                    start = a;
                    stop = b;
                    content = Branch branches;
                  },
                  next )
          | _ ->
              (* all items were empty repetitions: a zero-width node *)
              let p = skip_ws ctx pos in
              Some
                ( {
                    Parse_tree.symbol = name;
                    start = p;
                    stop = p;
                    content = Branch branches;
                  },
                  next )
        end
    end

let run grammar text ~symbol ~start ~stop =
  let ctx =
    {
      s = Pat.Text.unsafe_contents text;
      limit = stop;
      grammar;
      best_pos = start;
      best_expected = "input";
    }
  in
  match parse_nonterm ctx symbol start with
  | Some (node, next) ->
      let next = skip_ws ctx next in
      if next = stop then begin
        Stdx.Stats.(add_to bytes_parsed (stop - start));
        Ok node
      end
      else if ctx.best_pos > next then
        (* a longer parse was attempted and failed deeper in the input:
           that position explains the leftover better *)
        Error { position = ctx.best_pos; expected = ctx.best_expected }
      else Error { position = next; expected = "end of region" }
  | None -> Error { position = ctx.best_pos; expected = ctx.best_expected }

let parse grammar text =
  run grammar text ~symbol:(Grammar.root grammar) ~start:0
    ~stop:(Pat.Text.length text)

let parse_at grammar text ~symbol ~start ~stop = run grammar text ~symbol ~start ~stop
