let is_sorted ~cmp a =
  let n = Array.length a in
  let rec go i = i >= n - 1 || (cmp a.(i) a.(i + 1) < 0 && go (i + 1)) in
  go 0

let of_list ~cmp xs =
  let a = Array.of_list xs in
  Array.sort cmp a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let out = ref [ a.(n - 1) ] in
    for i = n - 2 downto 0 do
      if cmp a.(i) a.(i + 1) <> 0 then out := a.(i) :: !out
    done;
    Array.of_list !out
  end

let union ~cmp a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
  let out = Array.make (na + nb) a.(0) in
  let rec go i j k =
    if i >= na && j >= nb then k
    else if i >= na then begin out.(k) <- b.(j); go i (j + 1) (k + 1) end
    else if j >= nb then begin out.(k) <- a.(i); go (i + 1) j (k + 1) end
    else
      let c = cmp a.(i) b.(j) in
      if c < 0 then begin out.(k) <- a.(i); go (i + 1) j (k + 1) end
      else if c > 0 then begin out.(k) <- b.(j); go i (j + 1) (k + 1) end
      else begin out.(k) <- a.(i); go (i + 1) (j + 1) (k + 1) end
  in
  Array.sub out 0 (go 0 0 0)
  end

let inter ~cmp a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else begin
    let out = Array.make (min na nb) a.(0) in
    let rec go i j k =
      if i >= na || j >= nb then k
      else
        let c = cmp a.(i) b.(j) in
        if c < 0 then go (i + 1) j k
        else if c > 0 then go i (j + 1) k
        else begin out.(k) <- a.(i); go (i + 1) (j + 1) (k + 1) end
    in
    Array.sub out 0 (go 0 0 0)
  end

let diff ~cmp a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then [||]
  else begin
    let out = Array.make na a.(0) in
    let rec go i j k =
      if i >= na then k
      else if j >= nb then begin out.(k) <- a.(i); go (i + 1) j (k + 1) end
      else
        let c = cmp a.(i) b.(j) in
        if c < 0 then begin out.(k) <- a.(i); go (i + 1) j (k + 1) end
        else if c > 0 then go i (j + 1) k
        else go (i + 1) (j + 1) k
    in
    Array.sub out 0 (go 0 0 0)
  end

let lower_bound ~cmp a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cmp a.(mid) x < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let upper_bound ~cmp a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cmp a.(mid) x <= 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let mem ~cmp a x =
  let i = lower_bound ~cmp a x in
  i < Array.length a && cmp a.(i) x = 0

let subset ~cmp a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na then true
    else if j >= nb then false
    else
      let c = cmp a.(i) b.(j) in
      if c < 0 then false
      else if c > 0 then go i (j + 1)
      else go (i + 1) (j + 1)
  in
  go 0 0

let equal ~cmp a b =
  Array.length a = Array.length b
  && (let rec go i =
        i >= Array.length a || (cmp a.(i) b.(i) = 0 && go (i + 1))
      in
      go 0)

(* One pass into a buffer of the input's length, then one trim: no
   intermediate list. *)
let filter p a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (Array.unsafe_get a 0) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let x = Array.unsafe_get a i in
      if p x then begin
        Array.unsafe_set out !k x;
        incr k
      end
    done;
    if !k = n then out else Array.sub out 0 !k
  end
