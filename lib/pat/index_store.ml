(* On-disk layout (format version 3):

     "OQF-INDEX-" ^ version digits ^ "\n"   header, human-greppable
     16 bytes                               MD5 digest of the body
     body:
       varint n, then n bytes               the text
       varint k, then k names               each varint length + bytes,
                                            then its region count;
                                            strictly increasing
       varint u                             the node count
       m records (m = sum of the counts)    the node table

   Varints are unsigned LEB128.  A record is one (extent, name) pair:
   the start minus the previous record's start, the length, and the
   name's tag (its index in the name list).  Records are in
   {!Region.compare} order of their extents, then tag order, strictly
   increasing; consecutive records with one extent form one node.  The
   nodes are the universe, and each name's set is its records.  The
   counts let the decoder allocate every array at its final size
   before the one pass over the records.

   Version 2 marshalled the text and each name's (start, stop) list;
   version 1 (the seed format) had the bare magic "OQF-INDEX-1"
   followed immediately by the marshalled payload.  Both are
   recognised and rejected as [Version_mismatch], so callers (the
   catalog) can treat them as stale and rebuild. *)

let magic_prefix = "OQF-INDEX-"
let format_version = 3

type error =
  | Not_an_index_file of string
  | Version_mismatch of { path : string; found : int; expected : int }
  | Corrupt of { path : string; reason : string }

let error_message = function
  | Not_an_index_file path -> Printf.sprintf "%s is not an oqf index file" path
  | Version_mismatch { path; found; expected } ->
      Printf.sprintf "%s: index format version %d, expected %d (rebuild it)"
        path found expected
  | Corrupt { path; reason } ->
      Printf.sprintf "%s: corrupt index file (%s)" path reason

let add_varint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

(* Each name's set is walked against the node array once; its tag is
   appended to the nodes it hits, so every node's tags come out in
   increasing order. *)
let encode instance =
  let text = Text.unsafe_contents (Instance.text instance) in
  let names = Instance.names instance in
  let nodes = Region_set.to_array (Instance.universe instance) in
  let tags = Array.make (Array.length nodes) [] in
  List.iteri
    (fun tag name ->
      let i = ref 0 in
      Region_set.iter
        (fun r ->
          while Region.compare nodes.(!i) r < 0 do
            incr i
          done;
          tags.(!i) <- tag :: tags.(!i))
        (Instance.find instance name))
    names;
  let buf = Buffer.create (String.length text + (8 * Array.length nodes) + 64) in
  add_string buf text;
  add_varint buf (List.length names);
  List.iter
    (fun name ->
      add_string buf name;
      add_varint buf (Region_set.cardinal (Instance.find instance name)))
    names;
  add_varint buf (Array.length nodes);
  let prev = ref 0 in
  Array.iteri
    (fun i (r : Region.t) ->
      List.iter
        (fun tag ->
          add_varint buf (r.start - !prev);
          add_varint buf (Region.length r);
          add_varint buf tag;
          prev := r.start)
        (List.rev tags.(i)))
    nodes;
  Buffer.contents buf

exception Bad of string

(* Total over any string: every read is bounds-checked, and every
   count is checked against the bytes left before anything of that
   size is allocated.  Failures raise [Bad], caught in [decode]. *)
let decode_exn body =
  let len = String.length body in
  let pos = ref 0 in
  (* at most 9 bytes, the ninth holding 6 bits: values stay below 2^62 *)
  let varint () =
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if !pos >= len then raise (Bad "truncated body");
      let b = Char.code (String.unsafe_get body !pos) in
      incr pos;
      if !shift = 56 && b > 0x3f then raise (Bad "varint overflow");
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := b >= 0x80
    done;
    !acc
  in
  let bytes () =
    let n = varint () in
    if n > len - !pos then raise (Bad "truncated body");
    let s = String.sub body !pos n in
    pos := !pos + n;
    s
  in
  let contents = bytes () in
  let text_len = String.length contents in
  let k = varint () in
  if k > len - !pos then raise (Bad "name count exceeds body");
  let names = Array.make k "" and sets = Array.make k [||] and m = ref 0 in
  let dummy = Region.make ~start:0 ~stop:0 in
  for i = 0 to k - 1 do
    names.(i) <- bytes ();
    if i > 0 && String.compare names.(i - 1) names.(i) >= 0 then
      raise (Bad "names out of order");
    (* a record takes at least 3 bytes, all of them after [pos] *)
    let count = varint () in
    if count > ((len - !pos) / 3) - !m then
      raise (Bad "record count exceeds body");
    m := !m + count;
    sets.(i) <- Array.make count dummy
  done;
  let n_nodes = varint () in
  if !m > (len - !pos) / 3 then raise (Bad "record count exceeds body");
  if n_nodes > !m then raise (Bad "node count exceeds record count");
  (* One pass over the records.  [next] reads one into [start], [stop]
     and [tag] and says whether it opens a node; [node] (called by the
     forest sweep for each node in turn) takes the pending record that
     opened it and the records of the same extent after it, filing
     each under its name.  A record that opens a node beyond the
     declared count stays pending. *)
  let fill = Array.make k 0 and remaining = ref !m in
  let start = ref 0 and stop = ref (-1) and tag = ref (-1) in
  let next () =
    decr remaining;
    let delta = varint () in
    if delta > text_len - !start then raise (Bad "region outside the text");
    let s = !start + delta in
    let length = varint () in
    if length > text_len - s then raise (Bad "region outside the text");
    let e = s + length and t = varint () in
    if t >= k then raise (Bad "unknown name tag");
    let same_node = delta = 0 && e = !stop in
    if (delta = 0 && e > !stop && !stop >= 0) || (same_node && t <= !tag) then
      raise (Bad "records out of order");
    start := s;
    stop := e;
    tag := t;
    not same_node
  in
  let file r =
    let t = !tag in
    let f = fill.(t) in
    if f = Array.length sets.(t) then raise (Bad "name count mismatch");
    sets.(t).(f) <- r;
    fill.(t) <- f + 1
  in
  let pending = ref (!remaining > 0 && next ()) in
  let node _ =
    if not !pending then raise (Bad "fewer nodes than declared");
    let r = Region.make ~start:!start ~stop:!stop in
    file r;
    pending := false;
    while (not !pending) && !remaining > 0 do
      if next () then pending := true else file r
    done;
    r
  in
  let forest =
    try Region_set.forest_init n_nodes node
    with Invalid_argument _ -> raise (Bad "regions not nested")
  in
  if !pending then raise (Bad "more nodes than declared");
  if !pos <> len then raise (Bad "trailing bytes");
  (* every record was filed and none overflowed its name: each set is
     full, and strictly increasing because the records are *)
  Instance.create_with_forest (Text.of_string contents) ~forest
    (Array.to_list
       (Array.mapi (fun i name -> (name, Region_set.of_array sets.(i))) names))

let decode ~path body =
  match decode_exn body with
  | instance -> Ok instance
  | exception Bad reason -> Error (Corrupt { path; reason })

let save ~path instance =
  let body = encode instance in
  (* Write-then-rename so a crash mid-write never leaves a torn file
     under the final name: readers see the old image or the new one. *)
  Stdx.Retry.io ~site:"index.write" @@ fun () ->
  Stdx.Fault.hit "index.write";
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (magic_prefix ^ string_of_int format_version ^ "\n");
      Digest.output oc (Digest.string body);
      output_string oc body);
  Sys.rename tmp path

(* The version digits run up to the '\n' terminator.  A version-1 file
   has a '1' followed by raw marshal bytes instead of the terminator;
   reading digits-then-terminator classifies it correctly.  The current
   version without its terminator is a cut file, not an old one. *)
let read_header ic path =
  let m =
    try really_input_string ic (String.length magic_prefix)
    with End_of_file -> ""
  in
  if m <> magic_prefix then Error (Not_an_index_file path)
  else begin
    let buf = Buffer.create 4 in
    let rec digits () =
      match input_char ic with
      | '0' .. '9' as c ->
          Buffer.add_char buf c;
          digits ()
      | c -> Some c
      | exception End_of_file -> None
    in
    let terminator = digits () in
    match (int_of_string_opt (Buffer.contents buf), terminator) with
    | None, _ -> Error (Not_an_index_file path)
    | Some v, Some '\n' when v = format_version -> Ok ()
    | Some v, _ when v = format_version ->
        Error (Corrupt { path; reason = "truncated header" })
    | Some v, _ ->
        Error (Version_mismatch { path; found = v; expected = format_version })
  end

(* Body bytes hashed by [read_verified], whichever caller asked. *)
let bytes_checked = Obs.Metrics.counter "pat.index_bytes_checked"

(* The one reader behind [verify] and [load_result]: header, digest and
   body, checked against each other.  [tamper] sees the body before the
   checksum does (the load path's injected-corruption site).  Transient
   read failures (including injected ones) are retried under the
   [index.load] budget; an exhausted budget degrades to a [Corrupt]
   result so callers fall into the heal path rather than crashing. *)
let read_verified ~path ~tamper =
  if not (Sys.file_exists path) then
    Error (Corrupt { path; reason = path ^ ": No such file or directory" })
  else
    match
      Stdx.Retry.io ~site:"index.load" (fun () ->
          Stdx.Fault.hit "index.load";
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match read_header ic path with
              | Error e -> Error e
              | Ok () -> begin
                  match
                    let stored = Digest.input ic in
                    let body =
                      really_input_string ic (in_channel_length ic - pos_in ic)
                    in
                    (stored, tamper body)
                  with
                  | exception End_of_file ->
                      Error (Corrupt { path; reason = "truncated" })
                  | stored, body ->
                      Obs.Metrics.add_to bytes_checked (String.length body);
                      if Digest.equal stored (Digest.string body) then Ok body
                      else Error (Corrupt { path; reason = "checksum mismatch" })
                end))
    with
    | result -> result
    | exception Sys_error e -> Error (Corrupt { path; reason = e })
    | exception Stdx.Fault.Injected _ ->
        Error (Corrupt { path; reason = "i/o fault reading index" })

let load_result ~path =
  Result.bind
    (read_verified ~path ~tamper:(Stdx.Fault.corrupting "index.load"))
    (decode ~path)

let verify ~path = Result.map ignore (read_verified ~path ~tamper:Fun.id)

let load ~path =
  match load_result ~path with
  | Ok instance -> instance
  | Error e -> failwith ("Index_store.load: " ^ error_message e)
