type name_stats = {
  regions : int;
  match_points : int;
  depth_hist : int array;
}

module SM = Map.Make (String)

type t = {
  table : name_stats SM.t;
  default : int;  (* cardinality for unrecorded names *)
  bytes : int;  (* total source bytes covered, 0 unknown *)
  (* corpus totals over [table], summed once when the value is built so
     per-estimate calls never refold the table *)
  total_regions : int;
  total_mps : int;
}

let default_card = 1000

let make ?(default = default_card) ~bytes table =
  let total_regions, total_mps =
    SM.fold
      (fun _ s (r, m) -> (r + max 0 s.regions, m + s.match_points))
      table (0, 0)
  in
  { table; default = max 1 default; bytes; total_regions; total_mps }

let uniform () = make ~bytes:0 SM.empty

(* The depths of the catalog's manifest figures, computed in full:
   linear in the text and the universe, so only sources without
   manifest statistics pay it, and [Oqf.Execute] computes it at most
   once per source.  Match points stay 0 here, as they always were for
   such sources, so their plans do not change. *)
let of_instance inst =
  let table =
    List.fold_left
      (fun table (name, depth_hist) ->
        let regions = Pat.Region_set.cardinal (Pat.Instance.find inst name) in
        SM.add name { regions; match_points = 0; depth_hist } table)
      SM.empty
      (snd
         (Oqf_catalog.Catalog.instance_figures ~from:0 ~stats:[] ~depths:[]
            inst))
  in
  make ~bytes:(Pat.Text.length (Pat.Instance.text inst)) table

let of_entries entries =
  let add_hist a b =
    let n = max (Array.length a) (Array.length b) in
    Array.init n (fun i ->
        (if i < Array.length a then a.(i) else 0)
        + if i < Array.length b then b.(i) else 0)
  in
  let table =
    List.fold_left
      (fun table (e : Oqf_catalog.Catalog.entry) ->
        let table =
          List.fold_left
            (fun table (name, regions, mps) ->
              let prev =
                Option.value (SM.find_opt name table)
                  ~default:{ regions = 0; match_points = 0; depth_hist = [||] }
              in
              SM.add name
                {
                  prev with
                  regions = prev.regions + regions;
                  match_points = prev.match_points + mps;
                }
                table)
            table e.stats
        in
        List.fold_left
          (fun table (name, hist) ->
            let prev =
              Option.value (SM.find_opt name table)
                ~default:{ regions = 0; match_points = 0; depth_hist = [||] }
            in
            SM.add name
              { prev with depth_hist = add_hist prev.depth_hist hist }
              table)
          table e.depths)
      SM.empty entries
  in
  make
    ~bytes:
      (List.fold_left
         (fun acc (e : Oqf_catalog.Catalog.entry) -> acc + e.length)
         0 entries)
    table

let names t = List.map fst (SM.bindings t.table)
let find t name = SM.find_opt name t.table

let card t name =
  match SM.find_opt name t.table with
  | Some s -> float_of_int (max 0 s.regions)
  | None -> float_of_int t.default

let universe t =
  if t.total_regions > 0 then float_of_int t.total_regions
  else float_of_int t.default

let text_bytes t = float_of_int t.bytes

(* Independence assumption: word occurrences land uniformly on match
   points, so a region's chance of containing a given query word grows
   with how many words it holds.  The proxy for a word's reach is the
   corpus-average words-per-region: a name whose regions carry an
   average share of the text matches a typical word with probability
   ~1, while a name holding a single token per region is highly
   selective.  Both sides of the ratio are per-region densities, so
   the estimate is scale-free — growing the corpus leaves it fixed,
   and estimated match counts scale linearly with cardinality the way
   real word-index hits do. *)
let word_selectivity t name =
  match SM.find_opt name t.table with
  | Some s when s.match_points > 0 && s.regions > 0 ->
      let avg_words =
        Float.max 1.0
          (float_of_int t.total_mps /. float_of_int (max 1 t.total_regions))
      in
      let per_region =
        float_of_int s.match_points /. float_of_int s.regions
      in
      let sel = per_region /. avg_words in
      Float.min 1.0 (Float.max (1.0 /. float_of_int s.regions) sel)
  | _ -> 0.1

(* Independence assumption: outer/inner region pairs combine depths at
   random, so the chance a random pair sits exactly one level apart is
   Σ_d P(outer at d) · P(inner at d+1).  The truth is correlated (an
   inner region's depth depends on which outer region holds it), so we
   clamp below at 0.05 rather than letting a skewed histogram predict
   impossibility, and return the conservative 1 when either histogram
   is missing. *)
let depth_overlap t ~outer ~inner =
  match (SM.find_opt outer t.table, SM.find_opt inner t.table) with
  | Some a, Some b
    when Array.length a.depth_hist > 0 && Array.length b.depth_hist > 0 ->
      let total h = float_of_int (max 1 (Array.fold_left ( + ) 0 h)) in
      let ta = total a.depth_hist and tb = total b.depth_hist in
      let p = ref 0.0 in
      Array.iteri
        (fun d ca ->
          if d + 1 < Array.length b.depth_hist then
            p :=
              !p
              +. float_of_int ca /. ta
                 *. (float_of_int b.depth_hist.(d + 1) /. tb))
        a.depth_hist;
      Float.min 1.0 (Float.max 0.05 !p)
  | _ -> 1.0

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  SM.iter
    (fun name s ->
      Format.fprintf ppf "%s: %d regions, %d match points, depths [%s]@,"
        name s.regions s.match_points
        (String.concat ";"
           (Array.to_list (Array.map string_of_int s.depth_hist))))
    t.table;
  Format.fprintf ppf "universe=%.0f bytes=%d@]" (universe t) t.bytes
