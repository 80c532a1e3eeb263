(* The flat-set ⊃d kernels.  They count index operations, region
   comparisons and produced regions into [Stdx.Stats] exactly as
   [Pat.Region_set]'s operators do, so E8 can set their figures beside
   the forest kernel's. *)

module Region = Pat.Region
module Rs = Pat.Region_set

let tick_op () = Stdx.Stats.(incr index_ops)
let tick_cmp n = Stdx.Stats.(add_to region_comparisons n)

let produced r =
  Stdx.Stats.(add_to regions_produced (Rs.cardinal r));
  r

let filter = Rs.filter

(* Binary searches on the [start] component only.  Regions sharing a
   start are contiguous, so these delimit start windows. *)
let first_start_geq (t : Region.t array) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      tick_cmp 1;
      if t.(mid).Region.start < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t)

let last_start_leq (t : Region.t array) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      tick_cmp 1;
      if t.(mid).Region.start <= x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t) - 1

(* Is there a context region strictly between [outer] and [inner]?  The
   candidate window is the context regions whose start lies in
   [outer.start, inner.start]; each is tested for membership in the stop
   band.  Extents equal to either operand do not count as "between". *)
let blocked ~(context : Region.t array) (outer : Region.t) (inner : Region.t) =
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

let count_in ~(context : Region.t array) ~(outer : Region.t)
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

let count_strictly_between ~context ~outer ~inner =
  count_in ~context:(Rs.to_array context) ~outer ~inner

(* Enumerate the regions of [s] included in [reg], in order, applying
   [f] until it returns true; returns whether some application did. *)
let exists_included_in (s : Region.t array) (reg : Region.t) f =
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

(* Enumerate regions of [s] that include [reg]: their start is <=
   reg.start and stop >= reg.stop. *)
let exists_including (s : Region.t array) (reg : Region.t) f =
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

let directly_including ~context r s =
  let context = Rs.to_array context and s = Rs.to_array s in
  tick_op ();
  let keep reg =
    exists_included_in s reg (fun inner ->
        not (blocked ~context reg inner))
  in
  produced (filter keep r)

let directly_including_strict ~context r s =
  let context = Rs.to_array context and s = Rs.to_array s in
  tick_op ();
  let keep reg =
    exists_included_in s reg (fun inner ->
        (not (Region.equal reg inner)) && not (blocked ~context reg inner))
  in
  produced (filter keep r)

let directly_included ~context r s =
  let context = Rs.to_array context and s = Rs.to_array s in
  tick_op ();
  let keep reg =
    exists_including s reg (fun outer ->
        not (blocked ~context outer reg))
  in
  produced (filter keep r)

let directly_included_strict ~context r s =
  let context = Rs.to_array context and s = Rs.to_array s in
  tick_op ();
  let keep reg =
    exists_including s reg (fun outer ->
        (not (Region.equal reg outer)) && not (blocked ~context outer reg))
  in
  produced (filter keep r)

let including_at_depth ~context ~depth r s =
  let context = Rs.to_array context and s = Rs.to_array s in
  tick_op ();
  let keep reg =
    exists_included_in s reg (fun inner ->
        count_in ~context ~outer:reg ~inner = depth)
  in
  produced (filter keep r)

let direct_including_layered ~context r s =
  let result = ref Rs.empty in
  let layer = ref (Rs.outermost r) in
  let rest = ref (Rs.diff r !layer) in
  let continue_ = ref true in
  while (not (Rs.is_empty !layer)) && !continue_ do
    if Rs.is_empty (Rs.including !layer s) then continue_ := false
    else begin
      (* context regions strictly inside some layer region … *)
      let intermediates = Rs.included_strict context !layer in
      (* … shadow the s-regions strictly inside them *)
      let shadowed = Rs.included_strict s intermediates in
      let visible = Rs.diff s shadowed in
      result := Rs.union !result (Rs.including !layer visible);
      layer := Rs.outermost !rest;
      rest := Rs.diff !rest !layer
    end
  done;
  !result
