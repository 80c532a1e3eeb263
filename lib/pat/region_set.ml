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

(* Already strictly increasing input (a decoded index) costs one linear
   check and is taken as it is.  Anything else is sorted and
   deduplicated like [of_list]. *)
let of_array a =
  if Stdx.Sorted_array.is_sorted ~cmp:Region.compare a then a
  else of_list (Array.to_list a)

let of_pairs ps =
  of_array
    (Array.map (fun (start, stop) -> Region.make ~start ~stop) (Array.of_list ps))

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

(* Whether [r] comes before the key [(start, stop)] in {!Region.compare}
   order.  Keys with [stop = max_int] or [stop = -1] test the start
   alone: [r.start < start] and [r.start <= start]. *)
let before (r : Region.t) ~start ~stop =
  r.start < start || (r.start = start && r.stop > stop)

(* The first index in [lo, |t|) not before the key: probe [lo],
   [lo+1], [lo+3], … then binary-search the last step — O(log d)
   probes for an answer d places on, so a forward walk of cursors costs
   the log of its gaps.  Every probe is added to [probes], which the
   caller adds to the comparison counter once per operator.  Loops, not
   closures: nothing is allocated per call. *)
let gallop ~probes (t : t) lo ~start ~stop =
  let n = Array.length t in
  let lo = ref lo and hi = ref n and step = ref 1 and bracketed = ref false in
  while not !bracketed do
    let probe = !lo + !step - 1 in
    if probe >= n then bracketed := true
    else begin
      incr probes;
      if before t.(probe) ~start ~stop then begin
        lo := probe + 1;
        step := 2 * !step
      end
      else begin
        hi := probe;
        bracketed := true
      end
    end
  done;
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr probes;
    if before t.(mid) ~start ~stop then lo := mid + 1 else hi := mid
  done;
  !lo

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
    (* [filter] visits [r] in order, so the window's low end only moves
       forward; its high end is found galloping from there *)
    let table = min_stop_table s in
    let lo = ref 0 and probes = ref 0 in
    let keep (reg : Region.t) =
      lo := gallop ~probes s !lo ~start:reg.start ~stop:max_int;
      let hi = gallop ~probes s !lo ~start:reg.stop ~stop:(-1) - 1 in
      match Stdx.Range_minmax.query table ~lo:!lo ~hi with
      | Some m -> m <= reg.stop
      | None -> false
    in
    let out = filter keep r in
    tick_cmp !probes;
    produced out
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
    let cut = ref 0 and probes = ref 0 in
    let keep (reg : Region.t) =
      cut := gallop ~probes s !cut ~start:reg.start ~stop:(-1);
      match Stdx.Range_minmax.query table ~lo:0 ~hi:(!cut - 1) with
      | Some m -> m >= reg.stop
      | None -> false
    in
    let out = filter keep r in
    tick_cmp !probes;
    produced out
  end

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

(* ---------------- the region forest ----------------

   A universe built from parse trees is laminar: any two of its
   extents are disjoint or nested.  Its distinct extents then form an
   ordered forest, and "no indexed region strictly between [r] and [s]"
   means [r] is [s]'s extent or its parent.  The forest is one node
   array (the universe, in {!Region.compare} order) and one parent
   array, filled by a stack sweep that a later run of nodes can
   resume. *)

type forest = {
  nodes : t;
  parent : int array;
  closed : int;  (* the largest stop the sweep popped, -1 for none *)
}

(* Document order visits every enclosing region before the regions it
   encloses.  After popping the regions that do not include node [i],
   the stack is a chain of regions including [i], and [i]'s parent is
   its top.  Every region visited earlier starts at or before [i], so
   a popped region includes [i] iff its stop is at least [i]'s: the
   stack holds all of [i]'s includers iff the largest popped stop is
   below [i]'s stop.  That is the laminarity the kernels need — each
   node's includers form a chain — and the sweep refuses a universe
   without it.  A crossing pair with no node inside both keeps it; a
   node inside both, or an empty node at the stop of a region it
   touches, breaks it.

   The sweep resumes where the forest [prefix] left off: its nodes are
   the first of [nodes], and [node i] yields node [i] for each [i] past
   them, which is stored in [nodes]; nodes must come in strictly
   increasing order.  Nothing below a node is popped while it stays
   on the stack, so the stack a sweep leaves is its last node's chain
   of ancestors, which the parents give back.  The stack keeps each
   open node's stop beside its index, so popping reads no region. *)
let sweep prefix nodes node =
  let m = Array.length prefix.nodes and n = Array.length nodes in
  let parent = Array.make n (-1) in
  Array.blit prefix.parent 0 parent 0 m;
  let stack = Array.make n 0 and stops = Array.make n 0 and top = ref 0 in
  let rec reopen j =
    if j >= 0 then begin
      reopen parent.(j);
      stack.(!top) <- j;
      stops.(!top) <- nodes.(j).Region.stop;
      incr top
    end
  in
  reopen (m - 1);
  let closed = ref prefix.closed in
  let prev_start = ref (-1) and prev_stop = ref 0 in
  if m > 0 then begin
    prev_start := nodes.(m - 1).Region.start;
    prev_stop := nodes.(m - 1).Region.stop
  end;
  for i = m to n - 1 do
    let r = node i in
    let start = r.Region.start and stop = r.Region.stop in
    if start < !prev_start || (start = !prev_start && stop >= !prev_stop) then
      invalid_arg "Region_set.forest_init: nodes out of order";
    prev_start := start;
    prev_stop := stop;
    if nodes.(i) != r then nodes.(i) <- r;
    while !top > 0 && stops.(!top - 1) < stop do
      closed := Int.max !closed stops.(!top - 1);
      decr top
    done;
    if !closed >= stop then invalid_arg "Region_set.forest: regions not nested";
    if !top > 0 then parent.(i) <- stack.(!top - 1);
    stack.(!top) <- i;
    stops.(!top) <- stop;
    incr top
  done;
  { nodes; parent; closed = !closed }

let no_forest = { nodes = empty; parent = [||]; closed = -1 }
let forest nodes = sweep no_forest nodes (Array.get nodes)

let forest_init n node =
  sweep no_forest (Array.make n (Region.make ~start:0 ~stop:0)) node

let forest_append f s =
  let nodes = Array.append f.nodes s in
  sweep f nodes (Array.get nodes)

let nodes f = f.nodes
let parents f = f.parent

(* k-way merge of sorted sets through a binary heap of set indices
   keyed by their heads; equal extents come out adjacent and the first
   record is kept.  A build step, not an operator: nothing is counted. *)
let merge sets =
  match List.filter (fun s -> Array.length s > 0) sets with
  | [] -> empty
  | [ s ] -> s
  | sets ->
      let sets = Array.of_list sets in
      let k = Array.length sets in
      let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 sets in
      let out = Array.make total sets.(0).(0) and len = ref 0 in
      let pos = Array.make k 0 and heap = Array.init k Fun.id and size = ref k in
      let head s = sets.(s).(pos.(s)) in
      let less a b = Region.compare (head a) (head b) < 0 in
      let rec sift i =
        let l = (2 * i) + 1 in
        let m = if l < !size && less heap.(l) heap.(i) then l else i in
        let m = if l + 1 < !size && less heap.(l + 1) heap.(m) then l + 1 else m in
        if m <> i then begin
          let x = heap.(i) in
          heap.(i) <- heap.(m);
          heap.(m) <- x;
          sift m
        end
      in
      for i = (k / 2) - 1 downto 0 do
        sift i
      done;
      while !size > 0 do
        let s = heap.(0) in
        let r = head s in
        if !len = 0 || not (Region.equal out.(!len - 1) r) then begin
          out.(!len) <- r;
          incr len
        end;
        pos.(s) <- pos.(s) + 1;
        if pos.(s) = Array.length sets.(s) then begin
          decr size;
          heap.(0) <- heap.(!size)
        end;
        sift 0
      done;
      Array.sub out 0 !len

let not_a_node () = invalid_arg "Region_set: operand region is not a node"

(* Node indices of a sorted operand, galloping forward through the node
   array from the previous hit. *)
let locate ~probes (nodes : t) (a : t) =
  let n = Array.length nodes in
  let lo = ref 0 in
  Array.map
    (fun r ->
      let i = gallop ~probes nodes !lo ~start:r.Region.start ~stop:r.Region.stop in
      incr probes;
      if i >= n || not (Region.equal nodes.(i) r) then not_a_node ();
      lo := i + 1;
      i)
    a

(* Both kernel shapes start from the witness set [s], usually the small
   side (a candidate set against a whole name), and never walk all of
   [r]: [s] is located, then each kernel collects the indices it keeps,
   which are sorted once. *)
let on_forest f r s kernel =
  if is_empty r || is_empty s then begin
    tick_op ();
    empty
  end
  else begin
    let probes = ref 0 in
    let out = kernel ~probes (locate ~probes f.nodes s) in
    tick_cmp !probes;
    tick_op ();
    produced out
  end

(* The distinct values among the first [k] of [a] (node or operand
   indices, all >= 0), in increasing order.  Marks over their span when
   it is within a small factor of [k], a sort otherwise, so the cost is
   O(min(span, k log k)): it follows the kernel's witnesses, never the
   whole universe. *)
let sorted_unique a k =
  if k = 0 then [||]
  else begin
    let lo = ref max_int and hi = ref (-1) in
    for i = 0 to k - 1 do
      lo := Int.min !lo a.(i);
      hi := Int.max !hi a.(i)
    done;
    let span = !hi - !lo + 1 in
    let out = Array.make k 0 and n = ref 0 in
    if span <= 16 * k then begin
      let marks = Bytes.make span '\000' in
      for i = 0 to k - 1 do
        Bytes.unsafe_set marks (a.(i) - !lo) '\001'
      done;
      for i = 0 to span - 1 do
        if Bytes.unsafe_get marks i <> '\000' then begin
          out.(!n) <- i + !lo;
          incr n
        end
      done
    end
    else begin
      let b = Array.sub a 0 k in
      Array.sort Int.compare b;
      Array.iteri
        (fun i x ->
          if i = 0 || x <> b.(i - 1) then begin
            out.(!n) <- x;
            incr n
          end)
        b
    end;
    Array.sub out 0 !n
  end

(* ⊃d shape: the [r]-regions whose node is a target of some [s] node
   (itself, its parent, an ancestor — at most two per node), found by
   galloping through [r] once in target order. *)
let select_targets f r ~targets ~probes si =
  let acc = Array.make (2 * Array.length si) 0 and k = ref 0 in
  Array.iter
    (fun j ->
      targets j (fun t ->
          if t >= 0 then begin
            acc.(!k) <- t;
            incr k
          end))
    si;
  let n = Array.length r and pos = ref 0 and out = ref [] in
  Array.iter
    (fun t ->
      if !pos < n then begin
        let x = f.nodes.(t) in
        pos := gallop ~probes r !pos ~start:x.Region.start ~stop:x.Region.stop;
        if !pos < n then begin
          incr probes;
          if Region.equal r.(!pos) x then out := r.(!pos) :: !out
        end
      end)
    (sorted_unique acc !k);
  Array.of_list (List.rev !out)

(* ⊂d shape: for each [s] node [j], the [r]-regions inside its extent,
   located galloping from [j] in the node array, kept when [keep j c]
   holds of their node [c]. *)
let select_inside f r ~keep ~probes si =
  let nodes = f.nodes in
  let n = Array.length nodes and m = Array.length r in
  let kept = ref [] and first = ref 0 in
  Array.iter
    (fun j ->
      let outer = nodes.(j) in
      first :=
        gallop ~probes r !first ~start:outer.Region.start ~stop:outer.Region.stop;
      let rec each_k k c =
        if k < m then begin
          let x = r.(k) in
          incr probes;
          if x.Region.start <= outer.Region.stop then
            if not (Region.includes outer x) then each_k (k + 1) c
            else begin
              let c =
                gallop ~probes nodes c ~start:x.Region.start ~stop:x.Region.stop
              in
              if c >= n || not (Region.equal nodes.(c) x) then not_a_node ();
              if keep j c then kept := k :: !kept;
              each_k (k + 1) (c + 1)
            end
        end
      in
      each_k !first j)
    si;
  let kept = Array.of_list !kept in
  Array.map (fun k -> r.(k)) (sorted_unique kept (Array.length kept))

let parent f j = if j < 0 then -1 else f.parent.(j)

let directly_including_in f r s =
  on_forest f r s
    (select_targets f r ~targets:(fun j emit ->
         emit j;
         emit (parent f j)))

let directly_including_strict_in f r s =
  on_forest f r s
    (select_targets f r ~targets:(fun j emit -> emit (parent f j)))

let directly_included_in f r s =
  on_forest f r s
    (select_inside f r ~keep:(fun j c -> c = j || parent f c = j))

let directly_included_strict_in f r s =
  on_forest f r s
    (select_inside f r ~keep:(fun j c -> parent f c = j))

(* Exactly [depth] nodes strictly between: the ancestor at distance
   [depth + 1], or at depth 0 also the equal extent. *)
let including_at_depth_in f ~depth r s =
  let rec up j d = if d = 0 then j else up (parent f j) (d - 1) in
  on_forest f r s
    (select_targets f r ~targets:(fun j emit ->
         if depth = 0 then emit j;
         if depth >= 0 then emit (up j (depth + 1))))

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

let select keep t =
  tick_op ();
  let keep reg =
    tick_cmp 1;
    keep reg
  in
  produced (filter keep t)

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Region.pp)
    (to_list t)
