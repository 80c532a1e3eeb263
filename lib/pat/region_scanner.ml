let find_all s pattern =
  let m = String.length pattern in
  if m = 0 then []
  else begin
    let out = ref [] in
    let n = String.length s in
    let i = ref 0 in
    while !i <= n - m do
      (match String.index_from_opt s !i pattern.[0] with
      | None -> i := n
      | Some j ->
          if j > n - m then i := n
          else if String.sub s j m = pattern then begin
            out := j :: !out;
            i := j + 1
          end
          else i := j + 1);
      ()
    done;
    List.rev !out
  end

let scan text ~start_marker ~end_marker =
  let s = Text.unsafe_contents text in
  let starts = find_all s start_marker in
  let ends = Array.of_list (find_all s end_marker) in
  let slen = String.length start_marker in
  let next_end pos =
    let i = Stdx.Sorted_array.lower_bound ~cmp:Int.compare ends pos in
    if i < Array.length ends then Some ends.(i) else None
  in
  let regions =
    List.filter_map
      (fun sp ->
        match next_end (sp + slen) with
        | None -> None
        | Some ep -> Some (Region.make ~start:(sp + slen) ~stop:ep))
      starts
  in
  Region_set.of_list regions

let scan_balanced text ~open_char ~close_char =
  let s = Text.unsafe_contents text in
  let n = String.length s in
  let stack = ref [] in
  let out = ref [] in
  for i = 0 to n - 1 do
    if s.[i] = open_char then stack := i :: !stack
    else if s.[i] = close_char then begin
      match !stack with
      | [] -> ()
      | top :: rest ->
          stack := rest;
          out := Region.make ~start:(top + 1) ~stop:i :: !out
    end
  done;
  Region_set.of_list !out

let occurrences text pattern =
  let s = Text.unsafe_contents text in
  let m = String.length pattern in
  Region_set.of_list
    (List.map
       (fun p -> Region.make ~start:p ~stop:(p + m))
       (find_all s pattern))
