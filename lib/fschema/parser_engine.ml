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
    if pos = 0 then 0
    else
      match String.rindex_from_opt s (pos - 1) '\n' with
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

(* What a failed attempt expected, recorded as a constant: the message
   is formatted only when the whole parse fails.  [Literal] and
   [Nonterminal] name their literal or non-terminal in [best_arg]. *)
type expected =
  | Input
  | Literal
  | Nonterminal
  | Defined_nonterminal
  | A_word
  | Text_content

let message kind arg =
  match kind with
  | Input -> "input"
  | Literal -> Printf.sprintf "%S" arg
  | Nonterminal -> "non-terminal " ^ arg
  | Defined_nonterminal -> "defined non-terminal " ^ arg
  | A_word -> "a word"
  | Text_content -> "text content"

(* The engine allocates little beyond the tree it returns: a failed
   attempt returns [no_tree] (or [no_branches], or -1 for a position)
   and leaves its record in [best_*]; a success returns the node and
   leaves where it ended in [next].  A token leaves its trimmed span in
   [tok_start]/[tok_stop], a sequence its span in [span_lo]/[span_hi],
   a repetition the stop of its last element in [last_stop]; each
   caller reads them before it parses anything else. *)
type ctx = {
  s : string;
  limit : int;
  grammar : Grammar.t;
  mutable best_pos : int;
  mutable best_kind : expected;
  mutable best_arg : string;
  mutable next : int;
  mutable tok_start : int;
  mutable tok_stop : int;
  mutable span_lo : int;
  mutable span_hi : int;
  mutable last_stop : int;
}

let no_tree =
  { Parse_tree.symbol = ""; start = -1; stop = -1; content = Parse_tree.Leaf }

let no_branches = [ Parse_tree.Text (-1, -1) ]

let fail ctx pos kind arg =
  if pos >= ctx.best_pos then begin
    ctx.best_pos <- pos;
    ctx.best_kind <- kind;
    ctx.best_arg <- arg
  end

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let rec skip_ws ctx p =
  if p < ctx.limit && is_ws ctx.s.[p] then skip_ws ctx (p + 1) else p

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let rec word_stop ctx q =
  if q < ctx.limit && is_word_char ctx.s.[q] then word_stop ctx (q + 1) else q

let rec until_stop ctx mask q =
  if q < ctx.limit && String.unsafe_get mask (Char.code ctx.s.[q]) = '\000'
  then until_stop ctx mask (q + 1)
  else q

let rec trim_ws ctx p q =
  if q > p && is_ws ctx.s.[q - 1] then trim_ws ctx p (q - 1) else q

(* [lit] is at [p], matched in place *)
let rec lit_at s p lit i =
  i = String.length lit
  || (s.[p + i] = String.unsafe_get lit i && lit_at s p lit (i + 1))

(* The literal's stop (its start is the stop less its length), or -1
   with the failure recorded. *)
let parse_lit ctx pos lit =
  let p = skip_ws ctx pos in
  let m = String.length lit in
  if p + m <= ctx.limit && lit_at ctx.s p lit 0 then p + m
  else begin
    fail ctx p Literal lit;
    -1
  end

(* Where the token's scan ended, with its trimmed span in
   [tok_start]/[tok_stop]; or -1 with the failure recorded. *)
let parse_token ctx pos spec =
  let p = skip_ws ctx pos in
  match spec with
  | Grammar.Resolved.Word ->
      let q = word_stop ctx p in
      if q > p then begin
        ctx.tok_start <- p;
        ctx.tok_stop <- q;
        q
      end
      else begin
        fail ctx p A_word "";
        -1
      end
  | Grammar.Resolved.Until mask ->
      let q = until_stop ctx mask p in
      (* trim trailing whitespace from the token span *)
      let q' = trim_ws ctx p q in
      if q' > p then begin
        ctx.tok_start <- p;
        ctx.tok_stop <- q';
        q
      end
      else begin
        fail ctx p Text_content "";
        -1
      end

let rec parse_nonterm ctx nt pos =
  let alts = Grammar.resolved ctx.grammar nt in
  try_alts ctx nt alts 0 pos

and try_alts ctx nt alts i pos =
  if i = Array.length alts then begin
    fail ctx pos Nonterminal (Grammar.name ctx.grammar nt);
    no_tree
  end
  else
    let node = parse_rhs ctx nt (Array.unsafe_get alts i) pos in
    if node != no_tree then node else try_alts ctx nt alts (i + 1) pos

and parse_rhs ctx nt rhs pos =
  match rhs with
  | Grammar.Resolved.Token spec ->
      let next = parse_token ctx pos spec in
      if next < 0 then no_tree
      else begin
        ctx.next <- next;
        {
          Parse_tree.symbol = Grammar.name ctx.grammar nt;
          start = ctx.tok_start;
          stop = ctx.tok_stop;
          content = Leaf;
        }
      end
  | Grammar.Resolved.Seq items ->
      let branches = parse_items ctx items 0 pos (-1) (-1) in
      if branches == no_branches then no_tree
      else if ctx.span_lo >= 0 then
        {
          Parse_tree.symbol = Grammar.name ctx.grammar nt;
          start = ctx.span_lo;
          stop = ctx.span_hi;
          content = Branch branches;
        }
      else begin
        (* all items were empty repetitions: a zero-width node *)
        let p = skip_ws ctx pos in
        {
          Parse_tree.symbol = Grammar.name ctx.grammar nt;
          start = p;
          stop = p;
          content = Branch branches;
        }
      end

(* Items [i..] of a sequence from [pos]; [lo] is the start of the first
   item that matched (-1 before one has), [hi] the stop of the last.
   The branches come back in order, or [no_branches]; the span and the
   end are left in [span_lo]/[span_hi] and [next]. *)
and parse_items ctx items i pos lo hi =
  if i = Array.length items then begin
    ctx.span_lo <- lo;
    ctx.span_hi <- hi;
    ctx.next <- pos;
    []
  end
  else
    match Array.unsafe_get items i with
    | Grammar.Resolved.Lit lit ->
        let b = parse_lit ctx pos lit in
        if b < 0 then no_branches
        else
          parse_items ctx items (i + 1) b
            (if lo < 0 then b - String.length lit else lo)
            b
    | Grammar.Resolved.Tok spec ->
        let next = parse_token ctx pos spec in
        if next < 0 then no_branches
        else
          let a = ctx.tok_start and b = ctx.tok_stop in
          let rest =
            parse_items ctx items (i + 1) next (if lo < 0 then a else lo) b
          in
          if rest == no_branches then rest else Parse_tree.Text (a, b) :: rest
    | Grammar.Resolved.Nonterm nt ->
        let node = parse_nonterm ctx nt pos in
        if node == no_tree then no_branches
        else
          let rest =
            parse_items ctx items (i + 1) ctx.next
              (if lo < 0 then node.Parse_tree.start else lo)
              node.Parse_tree.stop
          in
          if rest == no_branches then rest else Parse_tree.Child node :: rest
    | Grammar.Resolved.Star (nt, separator) ->
        let elems = parse_star ctx nt separator pos in
        let lo, hi =
          match elems with
          | [] -> (lo, hi)
          | first :: _ ->
              ((if lo < 0 then first.Parse_tree.start else lo), ctx.last_stop)
        in
        let rest = parse_items ctx items (i + 1) ctx.next lo hi in
        if rest == no_branches then rest
        else Parse_tree.Children (Grammar.name ctx.grammar nt, elems) :: rest

(* A greedy repetition from [pos]: the elements in order, with the end
   in [next] and the last element's stop in [last_stop].  A separator
   commits only if another element follows it.  One deadline poll per
   element: a whole-file parse (the naive fallback, a full scan) is a
   loop over the file's entries, so a task's timeout can cut it short. *)
and parse_star ctx nt separator pos =
  Obs.Deadline.check ();
  let first = parse_nonterm ctx nt pos in
  if first == no_tree then begin
    ctx.next <- pos;
    []
  end
  else star_rest ctx nt separator [ first ] ctx.next

(* [acc] holds the elements so far, the last first *)
and star_rest ctx nt separator acc pos =
  Obs.Deadline.check ();
  let at =
    match separator with None -> pos | Some sep -> parse_lit ctx pos sep
  in
  let node = if at < 0 then no_tree else parse_nonterm ctx nt at in
  if node == no_tree then begin
    ctx.next <- pos;
    ctx.last_stop <- (List.hd acc).Parse_tree.stop;
    List.rev acc
  end
  else star_rest ctx nt separator (node :: acc) ctx.next

let run grammar text ~symbol ~start ~stop =
  let ctx =
    {
      s = Pat.Text.unsafe_contents text;
      limit = stop;
      grammar;
      best_pos = start;
      best_kind = Input;
      best_arg = "";
      next = start;
      tok_start = 0;
      tok_stop = 0;
      span_lo = 0;
      span_hi = 0;
      last_stop = 0;
    }
  in
  let best () =
    Error
      { position = ctx.best_pos; expected = message ctx.best_kind ctx.best_arg }
  in
  match Grammar.number grammar symbol with
  | None ->
      fail ctx start Defined_nonterminal symbol;
      best ()
  | Some nt ->
      let node = parse_nonterm ctx nt start in
      if node == no_tree then best ()
      else
        let next = skip_ws ctx ctx.next in
        if next = stop then begin
          Stdx.Stats.(add_to bytes_parsed (stop - start));
          Ok node
        end
        else if ctx.best_pos > next then
          (* a longer parse was attempted and failed deeper in the input:
             that position explains the leftover better *)
          best ()
        else Error { position = next; expected = "end of region" }

let parse grammar text =
  run grammar text ~symbol:(Grammar.root grammar) ~start:0
    ~stop:(Pat.Text.length text)

let parse_at grammar text ~symbol ~start ~stop = run grammar text ~symbol ~start ~stop
