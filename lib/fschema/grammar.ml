type term_spec = Word | Until of char list

type item =
  | Lit of string
  | Nonterm of string
  | Star of { nonterm : string; separator : string option }
  | Tok of term_spec

type rhs = Seq of item list | Token of term_spec
type rule = { lhs : string; rhs : rhs }

module Smap = Map.Make (String)

module Resolved = struct
  type spec = Word | Until of string

  type item =
    | Lit of string
    | Nonterm of int
    | Star of int * string option
    | Tok of spec

  type rhs = Seq of item array | Token of spec
end

type t = {
  root : string;
  rules : rhs list Smap.t;
  names : string array;
  resolved : Resolved.rhs array array;
}

let item_name = function
  | Nonterm n -> Some n
  | Star { nonterm; _ } -> Some nonterm
  | Lit _ | Tok _ -> None

let validate_rule rule =
  match rule.rhs with
  | Token _ -> Ok ()
  | Seq items ->
      if items = [] then Error (rule.lhs ^ ": empty right-hand side")
      else if
        List.exists (function Lit "" -> true | _ -> false) items
      then Error (rule.lhs ^ ": empty literal")
      else begin
        let names = List.filter_map item_name items in
        let dup =
          List.exists
            (fun n -> List.length (List.filter (String.equal n) names) > 1)
            names
        in
        if dup then
          Error
            (rule.lhs
           ^ ": a non-terminal may appear at most once on a right-hand side")
        else begin
          (* span discipline: a Seq must not be reducible to exactly the
             span of a single child *)
          match items with
          | [ Nonterm n ] ->
              Error
                (rule.lhs ^ " -> " ^ n
               ^ ": bare non-terminal; wrap it in literal delimiters so the \
                  parent region strictly contains the child")
          | [ Star { nonterm; _ } ] ->
              Error
                (rule.lhs ^ " -> " ^ nonterm
               ^ "*: bare repetition; wrap it in literal delimiters so the \
                  parent region strictly contains the elements")
          | _ -> Ok ()
        end
      end

(* A token's stop set as a 256-byte mask: byte [c] is ['\001'] when [c]
   ends the token. *)
let stop_mask stops =
  let mask = Bytes.make 256 '\000' in
  List.iter (fun c -> Bytes.set mask (Char.code c) '\001') stops;
  Bytes.unsafe_to_string mask

(* The index of [n] in the sorted array [names]. *)
let find_number names n =
  let rec find lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare n names.(mid) in
      if c = 0 then Some mid
      else if c < 0 then find lo mid
      else find (mid + 1) hi
  in
  find 0 (Array.length names)

let resolve root table =
  let names = Array.of_list (List.map fst (Smap.bindings table)) in
  (* [create] has checked that every non-terminal is defined *)
  let number n = Option.get (find_number names n) in
  let spec = function
    | Word -> Resolved.Word
    | Until stops -> Resolved.Until (stop_mask stops)
  in
  let item = function
    | Lit s -> Resolved.Lit s
    | Nonterm n -> Resolved.Nonterm (number n)
    | Star { nonterm; separator } -> Resolved.Star (number nonterm, separator)
    | Tok s -> Resolved.Tok (spec s)
  in
  let rhs = function
    | Seq items -> Resolved.Seq (Array.of_list (List.map item items))
    | Token s -> Resolved.Token (spec s)
  in
  let resolved =
    Array.map (fun n -> Array.of_list (List.map rhs (Smap.find n table))) names
  in
  { root; rules = table; names; resolved }

let create ~root rules =
  let table =
    List.fold_left
      (fun acc rule ->
        Smap.update rule.lhs
          (function None -> Some [ rule.rhs ] | Some rs -> Some (rs @ [ rule.rhs ]))
          acc)
      Smap.empty rules
  in
  let defined n = Smap.mem n table in
  let rec first_error = function
    | [] -> None
    | rule :: rest -> begin
        match validate_rule rule with
        | Error e -> Some e
        | Ok () ->
            let missing =
              match rule.rhs with
              | Token _ -> None
              | Seq items ->
                  List.find_map
                    (fun item ->
                      match item_name item with
                      | Some n when not (defined n) -> Some n
                      | _ -> None)
                    items
            in
            (match missing with
            | Some n -> Some ("undefined non-terminal: " ^ n)
            | None -> first_error rest)
      end
  in
  if not (defined root) then Error ("undefined root: " ^ root)
  else begin
    match first_error rules with
    | Some e -> Error e
    | None -> Ok (resolve root table)
  end

let create_exn ~root rules =
  match create ~root rules with
  | Ok g -> g
  | Error e -> invalid_arg ("Grammar.create: " ^ e)

let root t = t.root
let nonterminals t = Array.to_list t.names
let indexable t = List.filter (fun n -> n <> t.root) (nonterminals t)

let rules_of t n =
  match Smap.find_opt n t.rules with Some rs -> rs | None -> []

let number t n = find_number t.names n
let name t i = t.names.(i)
let resolved t i = t.resolved.(i)

let pp_spec ppf = function
  | Word -> Format.pp_print_string ppf "WORD"
  | Until stops ->
      Format.fprintf ppf "UNTIL[%s]"
        (String.concat "" (List.map (String.make 1) stops))

let pp_item ppf = function
  | Lit s -> Format.fprintf ppf "%S" s
  | Nonterm n -> Format.pp_print_string ppf n
  | Star { nonterm; separator = None } -> Format.fprintf ppf "%s*" nonterm
  | Star { nonterm; separator = Some sep } ->
      Format.fprintf ppf "%s* sep %S" nonterm sep
  | Tok spec -> pp_spec ppf spec

let pp ppf t =
  Format.fprintf ppf "@[<v>root: %s@," t.root;
  Smap.iter
    (fun lhs alts ->
      List.iter
        (fun rhs ->
          match rhs with
          | Token spec -> Format.fprintf ppf "%s -> %a@," lhs pp_spec spec
          | Seq items ->
              Format.fprintf ppf "%s -> %a@," lhs
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
                   pp_item)
                items)
        alts)
    t.rules;
  Format.fprintf ppf "@]"
