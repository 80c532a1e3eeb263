type t = Region.t array
(* Invariant: strictly increasing under Region.compare (start ascending,
   stop descending), hence duplicate-free. *)

let tick_op () = Stdx.Stats.(incr index_ops)
let tick_cmp n = Stdx.Stats.(add_to region_comparisons n)

let produced (r : t) =
  Stdx.Stats.(add_to regions_produced (Array.length r));
  r

let empty = [||]
let is_empty t = Array.length t = 0
let cardinal = Array.length
let of_list rs = Stdx.Sorted_array.of_list ~cmp:Region.compare rs

(* Saved indices hold [to_list] output, already strictly increasing: one
   linear check then takes the array as it is.  Anything else is sorted
   and deduplicated like [of_list]. *)
let of_pairs ps =
  let a =
    Array.map (fun (start, stop) -> Region.make ~start ~stop) (Array.of_list ps)
  in
  if Stdx.Sorted_array.is_sorted ~cmp:Region.compare a then a
  else of_list (Array.to_list a)

let to_list = Array.to_list
let to_array t = t
let mem t r = Stdx.Sorted_array.mem ~cmp:Region.compare t r
let equal a b = Stdx.Sorted_array.equal ~cmp:Region.compare a b
let subset a b = Stdx.Sorted_array.subset ~cmp:Region.compare a b
let iter = Array.iter
let fold f init t = Array.fold_left f init t
let filter p t = Stdx.Sorted_array.filter p t
let choose t = if Array.length t = 0 then None else Some t.(0)

let union a b =
  tick_op ();
  tick_cmp (Array.length a + Array.length b);
  produced (Stdx.Sorted_array.union ~cmp:Region.compare a b)

let inter a b =
  tick_op ();
  tick_cmp (Array.length a + Array.length b);
  produced (Stdx.Sorted_array.inter ~cmp:Region.compare a b)

let diff a b =
  tick_op ();
  tick_cmp (Array.length a + Array.length b);
  produced (Stdx.Sorted_array.diff ~cmp:Region.compare a b)

(* Binary searches on the [start] component only.  Regions sharing a
   start are contiguous, so these delimit start windows. *)
let first_start_geq (t : t) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      tick_cmp 1;
      if t.(mid).Region.start < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t)

let last_start_leq (t : t) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      tick_cmp 1;
      if t.(mid).Region.start <= x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t) - 1

let stops (t : t) = Array.map (fun r -> r.Region.stop) t

let min_stop_table t = Stdx.Range_minmax.of_array ~kind:`Min (stops t)
let max_stop_table t = Stdx.Range_minmax.of_array ~kind:`Max (stops t)

(* Building a range-min table over [s] costs O(|s| log |s|); for a
   handful of probes a direct window scan is cheaper. *)
let small_threshold = 16

let including r s =
  tick_op ();
  if is_empty r || is_empty s then empty
  else if Array.length r <= small_threshold then begin
    let keep (reg : Region.t) =
      let lo = first_start_geq s reg.start in
      let n = Array.length s in
      let rec scan i =
        if i >= n then false
        else begin
          let cand = s.(i) in
          tick_cmp 1;
          if cand.Region.start > reg.stop then false
          else cand.Region.stop <= reg.stop || scan (i + 1)
        end
      in
      scan lo
    in
    produced (filter keep r)
  end
  else begin
    let table = min_stop_table s in
    let keep (reg : Region.t) =
      let lo = first_start_geq s reg.start in
      let hi = last_start_leq s reg.stop in
      match Stdx.Range_minmax.query table ~lo ~hi with
      | Some m -> m <= reg.stop
      | None -> false
    in
    produced (filter keep r)
  end

let included r s =
  tick_op ();
  if is_empty r || is_empty s then empty
  else if Array.length r <= small_threshold then begin
    let keep (reg : Region.t) =
      let hi = last_start_leq s reg.start in
      let rec scan i =
        if i < 0 then false
        else begin
          tick_cmp 1;
          s.(i).Region.stop >= reg.stop || scan (i - 1)
        end
      in
      scan hi
    in
    produced (filter keep r)
  end
  else begin
    let table = max_stop_table s in
    let keep (reg : Region.t) =
      let hi = last_start_leq s reg.start in
      match Stdx.Range_minmax.query table ~lo:0 ~hi with
      | Some m -> m >= reg.stop
      | None -> false
    in
    produced (filter keep r)
  end

(* Is there a context region strictly between [outer] and [inner]?  The
   candidate window is the context regions whose start lies in
   [outer.start, inner.start]; each is tested for membership in the stop
   band.  Extents equal to either operand do not count as "between". *)
let blocked ~(context : t) (outer : Region.t) (inner : Region.t) =
  let lo = first_start_geq context outer.start in
  let hi = last_start_leq context inner.start in
  let rec go i =
    if i > hi then false
    else begin
      let u = context.(i) in
      tick_cmp 1;
      if
        u.Region.stop >= inner.Region.stop
        && u.Region.stop <= outer.Region.stop
        && (not (Region.equal u outer))
        && not (Region.equal u inner)
      then true
      else go (i + 1)
    end
  in
  go lo

let count_strictly_between ~(context : t) ~(outer : Region.t)
    ~(inner : Region.t) =
  let lo = first_start_geq context outer.start in
  let hi = last_start_leq context inner.start in
  let count = ref 0 in
  for i = lo to hi do
    let u = context.(i) in
    tick_cmp 1;
    if
      u.Region.stop >= inner.Region.stop
      && u.Region.stop <= outer.Region.stop
      && (not (Region.equal u outer))
      && not (Region.equal u inner)
    then incr count
  done;
  !count

(* Enumerate the regions of [s] included in [reg], in order, applying
   [f] until it returns true; returns whether some application did. *)
let exists_included_in (s : t) (reg : Region.t) f =
  let lo = first_start_geq s reg.start in
  let n = Array.length s in
  let rec go i =
    if i >= n then false
    else begin
      let cand = s.(i) in
      tick_cmp 1;
      if cand.Region.start > reg.stop then false
      else if cand.Region.stop <= reg.stop && f cand then true
      else go (i + 1)
    end
  in
  go lo

let directly_including ~context r s =
  tick_op ();
  let keep reg =
    exists_included_in s reg (fun inner ->
        not (blocked ~context reg inner))
  in
  produced (filter keep r)

let directly_including_strict ~context r s =
  tick_op ();
  let keep reg =
    exists_included_in s reg (fun inner ->
        (not (Region.equal reg inner)) && not (blocked ~context reg inner))
  in
  produced (filter keep r)

(* Enumerate regions of [s] that include [reg]: their start is <=
   reg.start and stop >= reg.stop. *)
let exists_including (s : t) (reg : Region.t) f =
  let hi = last_start_leq s reg.start in
  let rec go i =
    if i < 0 then false
    else begin
      let cand = s.(i) in
      tick_cmp 1;
      if cand.Region.stop >= reg.stop && f cand then true else go (i - 1)
    end
  in
  go hi

let directly_included ~context r s =
  tick_op ();
  let keep reg =
    exists_including s reg (fun outer ->
        not (blocked ~context outer reg))
  in
  produced (filter keep r)

let directly_included_strict ~context r s =
  tick_op ();
  let keep reg =
    exists_including s reg (fun outer ->
        (not (Region.equal reg outer)) && not (blocked ~context outer reg))
  in
  produced (filter keep r)

let including_strict r s =
  tick_op ();
  if is_empty r || is_empty s then empty
  else begin
    let keep (reg : Region.t) =
      exists_included_in s reg (fun inner -> not (Region.equal reg inner))
    in
    produced (filter keep r)
  end

let included_strict r s =
  tick_op ();
  if is_empty r || is_empty s then empty
  else begin
    let keep (reg : Region.t) =
      exists_including s reg (fun outer -> not (Region.equal reg outer))
    in
    produced (filter keep r)
  end

let including_at_depth ~context ~depth r s =
  tick_op ();
  let keep reg =
    exists_included_in s reg (fun inner ->
        count_strictly_between ~context ~outer:reg ~inner = depth)
  in
  produced (filter keep r)

let innermost t =
  tick_op ();
  if is_empty t then empty
  else begin
    let table = min_stop_table t in
    let keep i (reg : Region.t) =
      let lo = first_start_geq t reg.start in
      let hi = last_start_leq t reg.stop in
      match Stdx.Range_minmax.query_excluding table ~lo ~hi ~skip:i with
      | Some m -> m > reg.stop
      | None -> true
    in
    let out = ref [] in
    for i = Array.length t - 1 downto 0 do
      if keep i t.(i) then out := t.(i) :: !out
    done;
    produced (Array.of_list !out)
  end

let outermost t =
  tick_op ();
  if is_empty t then empty
  else begin
    let table = max_stop_table t in
    let keep i (reg : Region.t) =
      let hi = last_start_leq t reg.start in
      match Stdx.Range_minmax.query_excluding table ~lo:0 ~hi ~skip:i with
      | Some m -> m < reg.stop
      | None -> true
    in
    let out = ref [] in
    for i = Array.length t - 1 downto 0 do
      if keep i t.(i) then out := t.(i) :: !out
    done;
    produced (Array.of_list !out)
  end

let containing_match t ~positions ~len =
  tick_op ();
  let cmp = Int.compare in
  let keep (reg : Region.t) =
    let i = Stdx.Sorted_array.lower_bound ~cmp positions reg.start in
    tick_cmp 1;
    i < Array.length positions && positions.(i) + len <= reg.stop
  in
  produced (filter keep t)

let matching_prefix t ~positions ~len =
  tick_op ();
  let cmp = Int.compare in
  let keep (reg : Region.t) =
    tick_cmp 1;
    Region.length reg >= len && Stdx.Sorted_array.mem ~cmp positions reg.start
  in
  produced (filter keep t)

let occurrences_within _t ~positions ~len (reg : Region.t) =
  let cmp = Int.compare in
  let lo = Stdx.Sorted_array.lower_bound ~cmp positions reg.start in
  let hi = Stdx.Sorted_array.upper_bound ~cmp positions (reg.stop - len) in
  max 0 (hi - lo)

let containing_at_least t ~positions ~len ~count =
  tick_op ();
  let keep reg =
    tick_cmp 1;
    occurrences_within t ~positions ~len reg >= count
  in
  produced (filter keep t)

let matching_exact t ~positions ~len =
  tick_op ();
  let cmp = Int.compare in
  let keep (reg : Region.t) =
    tick_cmp 1;
    Region.length reg = len && Stdx.Sorted_array.mem ~cmp positions reg.start
  in
  produced (filter keep t)

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Region.pp)
    (to_list t)
