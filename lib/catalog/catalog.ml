(* A catalog is a directory:

     <dir>/CATALOG                 the current manifest (text, one block
                                   per entry, generation-stamped)
     <dir>/GEN                     generation pointer ("oqf-gen N")
     <dir>/generations/MANIFEST.gN immutable image of generation N
     <dir>/indices/*.idx           persisted instances (Pat.Index_store)

   The manifest records, per source file: the schema name, the indexed
   region names, a content fingerprint (MD5 + length) of the source as
   of the last build, the index format version, and the index file
   name.  Refresh fingerprints the source and rebuilds only what is
   new or stale; appended-to sources of append-only schemas are
   maintained incrementally.

   Every committed mutation produces a new, monotonically numbered
   generation: index files written by rebuilds and extensions carry the
   generation in their name and are never overwritten, so a reader that
   pinned generation G (see {!pin}) keeps reading exactly G's bytes
   while the writer commits G+1..G+k.  Unreferenced generations are
   retired by {!retire_unreferenced}, which is safe to kill at any
   point: deletion candidates come only from retired generation
   manifests, and any file still referenced by the current entries or a
   surviving generation manifest is spared. *)

let manifest_name = "CATALOG"
let manifest_magic = "oqf-catalog 1"
let indices_subdir = "indices"
let generations_subdir = "generations"
let gen_pointer_name = "GEN"
let gen_magic = "oqf-gen"

type entry = {
  source : string;
  schema : string;
  index_names : string list;
  length : int;
  digest : string;  (* hex MD5 of the source contents at build time *)
  version : int;    (* index format version the entry was written with *)
  index_file : string;  (* relative to the catalog directory *)
  stats : (string * int * int) list;
      (* per region name: (name, region count, match-point count),
         captured at build time; [] for entries written before the
         field existed *)
  depths : (string * int array) list;
      (* per region name: histogram of nesting depths (index d counts
         the regions lying under exactly d enclosing indexed regions;
         the last bucket absorbs deeper nesting), captured at build
         time; [] for entries written before the field existed *)
}

(* Concurrency contract: one writer, N readers.  [entries] and
   [generation] are read and replaced together under [gen_lock]; the
   writer never mutates a published entry list in place, it installs a
   fresh one at commit.  [pins] maps generation -> refcount and is
   touched only under [gen_lock]. *)
type t = {
  dir : string;
  mutable entries : entry list;  (* in add order *)
  mutable generation : int;
  gen_lock : Mutex.t;
  pins : (int, int) Hashtbl.t;
  cache : Instance_cache.t;
  mutable warnings : string list;  (* torn-manifest recovery notes *)
}

let dir t = t.dir
let entries t = t.entries
let cache t = t.cache
let recovery_warnings t = t.warnings
let generation t = t.generation

let catalog_healed = Obs.Metrics.counter "catalog.healed"
let catalog_extended = Obs.Metrics.counter "catalog.extended"
let stats_bytes_scanned = Obs.Metrics.counter "catalog.stats_bytes_scanned"
let catalog_quarantined = Obs.Metrics.counter "catalog.quarantined"
let catalog_recovered = Obs.Metrics.counter "catalog.recovered"
let catalog_generation = Obs.Metrics.counter "catalog.generation"
let catalog_commits = Obs.Metrics.counter "catalog.commits"
let catalog_retired = Obs.Metrics.counter "catalog.retired"
let snapshot_pinned = Obs.Metrics.counter "snapshot.pinned"
let find t source = List.find_opt (fun e -> e.source = source) t.entries

let default_budget = 64 * 1024 * 1024

(* ---------------- manifest serialisation ---------------- *)

let entry_to_lines e =
  [
    "entry";
    "source " ^ e.source;
    "schema " ^ e.schema;
    "index " ^ String.concat "," e.index_names;
    "length " ^ string_of_int e.length;
    "digest " ^ e.digest;
    "version " ^ string_of_int e.version;
    "file " ^ e.index_file;
  ]
  @ List.map
      (fun (name, regions, mps) ->
        Printf.sprintf "rstat %s %d %d" name regions mps)
      e.stats
  @ List.map
      (fun (name, hist) ->
        Printf.sprintf "rdepth %s %s" name
          (String.concat " "
             (List.map string_of_int (Array.to_list hist))))
      e.depths
  @ [ "end" ]

let manifest_image ~generation entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (manifest_magic ^ "\n");
  Buffer.add_string buf (Printf.sprintf "generation %d\n" generation);
  List.iter
    (fun e ->
      List.iter
        (fun line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
        (entry_to_lines e))
    entries;
  Buffer.contents buf

(* Crash-safe: the new image is written to a temp file, forced to disk
   with fsync, and renamed over the old file.  A crash at any point
   leaves either the old file or the new one — never a torn mix. *)
let write_atomic ~site path content =
  Stdx.Retry.io ~site @@ fun () ->
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc content;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  (* the crash window the rename protects: tmp is durable, the swap has
     not happened yet *)
  Stdx.Fault.hit site;
  Sys.rename tmp path

let manifest_path dir = Filename.concat dir manifest_name
let gen_pointer_path dir = Filename.concat dir gen_pointer_name
let generations_dir dir = Filename.concat dir generations_subdir

let gen_manifest_rel g =
  Filename.concat generations_subdir (Printf.sprintf "MANIFEST.g%d" g)

let gen_manifest_path t g = Filename.concat t.dir (gen_manifest_rel g)

let ensure_layout dir =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.concat dir indices_subdir; generations_dir dir ]

let write_pointer dir g =
  write_atomic ~site:"gen.commit" (gen_pointer_path dir)
    (Printf.sprintf "%s %d\n" gen_magic g)

(* The pointer is advisory — the CATALOG manifest remains the single
   source of truth for content; the pointer only guards generation
   numbering monotonicity across a crash between the manifest swap and
   the pointer move.  Reading it takes no retry site: any damage is
   salvaged at open. *)
let read_pointer dir =
  let path = gen_pointer_path dir in
  if not (Sys.file_exists path) then `Missing
  else begin
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> input_line ic)
    with
    | exception _ -> `Damaged
    | line -> begin
        match String.split_on_char ' ' (String.trim line) with
        | [ magic; g ] when magic = gen_magic -> begin
            match int_of_string_opt g with
            | Some g when g >= 0 -> `Gen g
            | _ -> `Damaged
          end
        | _ -> `Damaged
      end
  end

(* Rewrite the current manifest and pointer at the current generation —
   recovery's path (no generation bump, no new immutable image). *)
let write_current t =
  let image = manifest_image ~generation:t.generation t.entries in
  write_atomic ~site:"catalog.write" (manifest_path t.dir) image;
  write_pointer t.dir t.generation

let field name line =
  let prefix = name ^ " " in
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then
    Some
      (String.sub line (String.length prefix)
         (String.length line - String.length prefix))
  else None

(* Lenient by design: a damaged manifest (torn tail from a crash on a
   filesystem without atomic rename, hand-editing, bit rot) keeps its
   complete leading entries and drops everything from the first bad
   line on, reporting why.  Only a wrong magic line is a hard error —
   that is not our file. *)
let parse_manifest path lines =
  let generation = ref None in
  let salvage acc reason = Ok (List.rev acc, !generation, Some reason) in
  let rec entries acc = function
    | [] -> Ok (List.rev acc, !generation, None)
    | "entry" :: rest -> block [] rest acc
    | "" :: rest -> entries acc rest
    | line :: rest when field "generation" line <> None -> begin
        match Option.bind (field "generation" line) int_of_string_opt with
        | Some g when g >= 0 ->
            generation := Some g;
            entries acc rest
        | _ -> salvage acc "malformed generation line"
      end
    | line :: _ ->
        salvage acc (Printf.sprintf "unexpected manifest line %S" line)
  and block fields rest acc =
    match rest with
    | "end" :: rest -> begin
        let get name = List.find_map (field name) (List.rev fields) in
        (* optional per-name statistics; absent in manifests written
           before the field existed, and skipped (not fatal) when
           malformed so older/newer builds can read each other *)
        let stats =
          List.filter_map
            (fun line ->
              match field "rstat" line with
              | None -> None
              | Some rest -> begin
                  match String.split_on_char ' ' rest with
                  | [ name; regions; mps ] -> begin
                      match
                        (int_of_string_opt regions, int_of_string_opt mps)
                      with
                      | Some r, Some m -> Some (name, r, m)
                      | _ -> None
                    end
                  | _ -> None
                end)
            (List.rev fields)
        in
        (* optional per-name nesting-depth histograms, same
           compatibility contract as rstat *)
        let depths =
          List.filter_map
            (fun line ->
              match field "rdepth" line with
              | None -> None
              | Some rest -> begin
                  match String.split_on_char ' ' rest with
                  | name :: (_ :: _ as counts) -> begin
                      match
                        List.map int_of_string_opt counts
                        |> List.fold_left
                             (fun acc c ->
                               match (acc, c) with
                               | Some acc, Some c -> Some (c :: acc)
                               | _ -> None)
                             (Some [])
                      with
                      | Some rev -> Some (name, Array.of_list (List.rev rev))
                      | None -> None
                    end
                  | _ -> None
                end)
            (List.rev fields)
        in
        match
          ( get "source", get "schema", get "index", get "length",
            get "digest", get "version", get "file" )
        with
        | ( Some source, Some schema, Some index, Some length, Some digest,
            Some version, Some index_file ) -> begin
            match (int_of_string_opt length, int_of_string_opt version) with
            | Some length, Some version ->
                entries
                  ({
                     source;
                     schema;
                     index_names =
                       List.filter
                         (fun s -> s <> "")
                         (String.split_on_char ',' index);
                     length;
                     digest;
                     version;
                     index_file;
                     stats;
                     depths;
                   }
                  :: acc)
                  rest
            | _ ->
                salvage acc
                  (Printf.sprintf "entry for %s has a malformed number" source)
          end
        | _ -> salvage acc "entry block with missing fields"
      end
    | line :: rest -> block (line :: fields) rest acc
    | [] -> salvage acc "unterminated entry block"
  in
  match lines with
  | magic :: rest when magic = manifest_magic -> entries [] rest
  | _ -> Error (path ^ ": not an oqf catalog manifest (bad first line)")

let read_lines path =
  Stdx.Retry.io ~site:"catalog.read" @@ fun () ->
  Stdx.Fault.hit "catalog.read";
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* ---------------- generations: listing and retirement ---------------- *)

let list_generations t =
  match Sys.readdir (generations_dir t.dir) with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             let prefix = "MANIFEST.g" in
             if String.length f > String.length prefix
                && String.sub f 0 (String.length prefix) = prefix
             then
               int_of_string_opt
                 (String.sub f (String.length prefix)
                    (String.length f - String.length prefix))
             else None)
      |> List.sort compare

(* The index files a generation's immutable manifest references; [] for
   an unreadable image (its files then fall to the orphan sweep of
   [repair] rather than being deleted on someone else's say-so). *)
let files_of_generation t g =
  let path = gen_manifest_path t g in
  match parse_manifest path (read_lines path) with
  | exception _ -> []
  | Error _ -> []
  | Ok (entries, _, _) -> List.map (fun e -> e.index_file) entries

let pinned_generations t =
  Mutex.lock t.gen_lock;
  let pins = Hashtbl.fold (fun g n acc -> (g, n) :: acc) t.pins [] in
  Mutex.unlock t.gen_lock;
  List.sort compare pins

(* Retire every generation older than the current one that no snapshot
   pins: delete the index files only it references, then its manifest.
   Crash-safe by construction — deletion candidates come only from the
   retired manifest's own file list, and anything referenced by the
   current entries or by a manifest that survives this pass is spared.
   A kill at any point leaves extra files, never missing ones; the next
   pass (or [repair]) finishes the job.  Safe against concurrent pins:
   a reader can only pin the current generation, and [dead] excludes
   it, so no generation in [dead] can gain a pin mid-pass. *)
let retire_unreferenced t =
  Mutex.lock t.gen_lock;
  let current = t.generation in
  let pinned = Hashtbl.fold (fun g _ acc -> g :: acc) t.pins [] in
  Mutex.unlock t.gen_lock;
  let gens = list_generations t in
  let dead =
    List.filter (fun g -> g < current && not (List.mem g pinned)) gens
  in
  if dead = [] then []
  else begin
    let kept = List.filter (fun g -> not (List.mem g dead)) gens in
    let referenced =
      List.map (fun e -> e.index_file) t.entries
      @ List.concat_map (files_of_generation t) kept
    in
    let removed = ref [] in
    List.iter
      (fun g ->
        try
          Stdx.Fault.hit "gen.retire";
          List.iter
            (fun rel ->
              if not (List.mem rel referenced) then begin
                match Sys.remove (Filename.concat t.dir rel) with
                | () -> removed := rel :: !removed
                | exception Sys_error _ -> ()
              end)
            (files_of_generation t g);
          (try Sys.remove (gen_manifest_path t g) with Sys_error _ -> ());
          removed := gen_manifest_rel g :: !removed;
          Obs.Metrics.incr catalog_retired;
          if Obs.Trace.enabled () then
            Obs.Trace.instant "gen.retire"
              ~attrs:[ ("generation", Obs.Trace.Int g) ]
        with
        | Stdx.Fault.Injected _ | Sys_error _ ->
            (* a faulted retirement is not an error: the generation
               stays on disk and the next pass picks it up *)
            ())
      dead;
    List.rev !removed
  end

(* Commit a new entry list as the next generation:

     1. write generations/MANIFEST.g<next>   (durable immutable image)
     2. rename it over CATALOG               (the authoritative swap)
     3. move the GEN pointer

   [gen.commit] fires in the 1->2 and 2->3 crash windows (the
   [catalog.write] site keeps guarding step 2 as it always has).  A
   crash after 1 leaves a stray future image repair collapses; a crash
   after 2 leaves a stale pointer open_dir salvages.  Only after all
   three does the new state become visible to readers — installed
   atomically under [gen_lock] so a concurrent [pin] sees either the
   old generation with the old entries or the new with the new. *)
let commit t entries' =
  Obs.Trace.with_span "gen.commit"
    ~attrs:(fun () -> [ ("generation", Obs.Trace.Int (t.generation + 1)) ])
  @@ fun () ->
  ensure_layout t.dir;
  let next = t.generation + 1 in
  let image = manifest_image ~generation:next entries' in
  write_atomic ~site:"gen.commit" (gen_manifest_path t next) image;
  write_atomic ~site:"catalog.write" (manifest_path t.dir) image;
  write_pointer t.dir next;
  Mutex.lock t.gen_lock;
  t.entries <- entries';
  t.generation <- next;
  Mutex.unlock t.gen_lock;
  Obs.Metrics.set catalog_generation next;
  Obs.Metrics.incr catalog_commits;
  ignore (retire_unreferenced t : string list)

(* ---------------- opening ---------------- *)

let make ~dir ~entries ~generation ~budget_bytes =
  {
    dir;
    entries;
    generation;
    gen_lock = Mutex.create ();
    pins = Hashtbl.create 8;
    cache = Instance_cache.create ~budget_bytes;
    warnings = [];
  }

let init dir =
  if Sys.file_exists (manifest_path dir) then
    Error (dir ^ " already holds a catalog")
  else begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    if not (Sys.is_directory dir) then Error (dir ^ " is not a directory")
    else begin
      let t = make ~dir ~entries:[] ~generation:0 ~budget_bytes:default_budget in
      ensure_layout dir;
      let image = manifest_image ~generation:0 [] in
      write_atomic ~site:"gen.commit" (gen_manifest_path t 0) image;
      write_atomic ~site:"catalog.write" (manifest_path dir) image;
      write_pointer dir 0;
      Ok t
    end
  end

let open_dir ?(budget_bytes = default_budget) dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then
    Error (dir ^ " holds no catalog (run catalog init first)")
  else begin
    match parse_manifest path (read_lines path) with
    | Error e -> Error e
    | Ok (entries, mgen, recovered) ->
        let has_gen_line = mgen <> None in
        let mgen = Option.value mgen ~default:0 in
        let t = make ~dir ~entries ~generation:mgen ~budget_bytes in
        let warn w = t.warnings <- t.warnings @ [ w ] in
        (* the pointer only guards numbering monotonicity; the manifest
           stays authoritative for content.  Disagreement means a crash
           landed between the manifest swap and the pointer move (or
           the pointer was damaged) — adopt the higher number and
           rewrite the pointer. *)
        let pointer_damage =
          match read_pointer dir with
          | `Gen g when g = t.generation -> None
          | `Gen g when g > t.generation ->
              t.generation <- g;
              Some
                (Printf.sprintf
                   "generation pointer ahead of manifest (%d > %d); adopted \
                    %d as the numbering floor"
                   g mgen g)
          | `Gen g ->
              Some
                (Printf.sprintf "stale generation pointer (%d, manifest at %d)"
                   g t.generation)
          | `Missing when (not has_gen_line) && t.generation = 0 ->
              None (* legacy pre-generation catalog: silent upgrade *)
          | `Missing -> Some "generation pointer missing"
          | `Damaged -> Some "generation pointer unreadable"
        in
        (match recovered with
        | None -> begin
            match pointer_damage with
            | None -> ()
            | Some reason ->
                Obs.Metrics.incr catalog_recovered;
                warn (Printf.sprintf "%s; rewrote it" reason);
                write_pointer dir t.generation
          end
        | Some reason ->
            Obs.Metrics.incr catalog_recovered;
            warn
              (Printf.sprintf
                 "recovered torn manifest (%s); kept %d entries and rewrote it"
                 reason (List.length entries));
            (match pointer_damage with
            | None -> ()
            | Some reason ->
                Obs.Metrics.incr catalog_recovered;
                warn (Printf.sprintf "%s; rewrote it" reason));
            (* persist the recovered image so the next open is clean *)
            write_current t);
        Obs.Metrics.set catalog_generation t.generation;
        Ok t
  end

(* ---------------- snapshots ---------------- *)

type snapshot = { s_gen : int; s_entries : entry list; s_cat : t }

let total_pins t = Hashtbl.fold (fun _ n acc -> acc + n) t.pins 0

let pin t =
  Mutex.lock t.gen_lock;
  let g = t.generation and entries = t.entries in
  Hashtbl.replace t.pins g
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.pins g));
  let total = total_pins t in
  Mutex.unlock t.gen_lock;
  Obs.Metrics.set snapshot_pinned total;
  if Obs.Trace.enabled () then
    Obs.Trace.instant "snapshot.pin"
      ~attrs:[ ("generation", Obs.Trace.Int g) ];
  { s_gen = g; s_entries = entries; s_cat = t }

let release s =
  let t = s.s_cat in
  Mutex.lock t.gen_lock;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.pins s.s_gen) in
  if n <= 1 then Hashtbl.remove t.pins s.s_gen
  else Hashtbl.replace t.pins s.s_gen (n - 1);
  let total = total_pins t in
  let behind = s.s_gen < t.generation in
  Mutex.unlock t.gen_lock;
  Obs.Metrics.set snapshot_pinned total;
  if Obs.Trace.enabled () then
    Obs.Trace.instant "snapshot.release"
      ~attrs:[ ("generation", Obs.Trace.Int s.s_gen) ];
  (* dropping the last pin of a superseded generation is what makes it
     retirable — collect eagerly rather than waiting for a commit *)
  if behind && n <= 1 then ignore (retire_unreferenced t : string list)

let with_snapshot t f =
  let s = pin t in
  Fun.protect ~finally:(fun () -> release s) (fun () -> f s)

let snapshot_generation s = s.s_gen
let snapshot_entries s = s.s_entries

let snapshot_find s source =
  List.find_opt (fun e -> e.source = source) s.s_entries

(* ---------------- fingerprints and staleness ---------------- *)

let fingerprint text =
  Digest.to_hex (Digest.string (Pat.Text.unsafe_contents text))

let prefix_fingerprint text len =
  Digest.to_hex (Digest.subbytes (Bytes.unsafe_of_string (Pat.Text.unsafe_contents text)) 0 len)

type staleness =
  | Fresh
  | Source_missing
  | Index_missing
  | Index_unreadable of string
  | Appended of { old_len : int; new_len : int }
  | Changed

let index_path t e = Filename.concat t.dir e.index_file

let orphan_index_files t =
  let dir = Filename.concat t.dir indices_subdir in
  let referenced =
    List.map (fun e -> e.index_file) t.entries
    @ List.concat_map (files_of_generation t) (list_generations t)
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             let rel = Filename.concat indices_subdir f in
             if List.mem rel referenced then None else Some rel)
      |> List.sort compare

(* The cheap pre-check a long-lived server runs per request: two
   [stat] calls, no reads, no hashing.  [false] means provably not
   worth a refresh under the recorded metadata — the source still has
   the recorded length and both its mtime and its ctime are older than
   its index.  [true] means the full {!staleness} fingerprint (which
   reads and hashes the file) could find something, so the caller
   should refresh.  A same-length in-place edit with a backdated mtime
   still moves the ctime, which [utimes] cannot set back. *)
let possibly_stale t e =
  match Unix.stat e.source with
  | exception Unix.Unix_error _ -> true (* source missing/unreadable *)
  | src ->
      if src.Unix.st_size <> e.length then true
      else if e.version <> Pat.Index_store.format_version then true
      else begin
        match Unix.stat (index_path t e) with
        | exception Unix.Unix_error _ -> true (* index missing *)
        | idx ->
            Float.max src.Unix.st_mtime src.Unix.st_ctime > idx.Unix.st_mtime
      end

(* [check] probes an index whose source fingerprint is current.  The
   source's text comes back with the verdict, so that a refresh reads
   the file once. *)
let staleness_by ~check t e =
  if not (Sys.file_exists e.source) then (Source_missing, None)
  else begin
    let text = Pat.Text.of_file e.source in
    let n = Pat.Text.length text in
    let index_state () =
      let path = index_path t e in
      if not (Sys.file_exists path) then Index_missing
      else if e.version <> Pat.Index_store.format_version then
        Index_unreadable
          (Printf.sprintf "index format version %d, expected %d" e.version
             Pat.Index_store.format_version)
      else begin
        match check path with
        | Ok () -> Fresh
        | Error err -> Index_unreadable (Pat.Index_store.error_message err)
      end
    in
    let verdict =
      if n = e.length then
        if fingerprint text = e.digest then index_state () else Changed
      else if n > e.length && prefix_fingerprint text e.length = e.digest then
        Appended { old_len = e.length; new_len = n }
      else Changed
    in
    (verdict, Some text)
  end

let verify_index path = Pat.Index_store.verify ~path
let staleness t e = fst (staleness_by ~check:verify_index t e)

let status t = List.map (fun e -> (e, staleness t e)) t.entries

let pp_staleness ppf = function
  | Fresh -> Format.pp_print_string ppf "fresh"
  | Source_missing -> Format.pp_print_string ppf "source missing"
  | Index_missing -> Format.pp_print_string ppf "index missing"
  | Index_unreadable reason -> Format.fprintf ppf "stale (%s)" reason
  | Appended { old_len; new_len } ->
      Format.fprintf ppf "appended (+%d bytes)" (new_len - old_len)
  | Changed -> Format.pp_print_string ppf "changed"

(* ---------------- building and refreshing ---------------- *)

(* Per-name figures recorded in the manifest, so that [oqf catalog
   stats] and the cost planner answer without loading any index: each
   name's region count, its match points (a match point is a word start
   inside a region's span — the unit pat expressions match at — so the
   count says how much searchable content the name covers), and a
   histogram of how many of its regions lie under 0, 1, 2, … enclosing
   indexed regions (the cost model uses the overlap of these histograms
   to estimate how often a direct-inclusion probe can succeed at all).

   [stats] and [depths] hold the figures of the regions that start
   before [from]; the function adds those of the regions and forest
   nodes that start at or past it, and reads only the text from [from]
   on, with the one byte before it that decides whether a word starts
   at [from].  A build passes 0 and no figures.  An append passes the
   old length and the old entry's figures: appending leaves every old
   region where it was, with its match points and its depth, and every
   appended one starts in the tail.

   A node's depth is its parent's plus one, and parents precede their
   children in the forest, so one pass fills the depths of the nodes
   past [from]; the few older nodes they hang from are walked up to a
   root.  Each name's regions (a subset of the nodes, both in document
   order) find their nodes in one forward walk, and their match points
   with two searches in the word starts. *)
let depth_buckets = 8

let instance_figures ~from ~stats ~depths instance =
  let text = Pat.Instance.text instance in
  let starts = Pat.Tokenizer.word_starts ~from text in
  Obs.Metrics.add_to stats_bytes_scanned (Pat.Text.length text - from);
  let forest = Pat.Instance.forest instance in
  let u = Pat.Region_set.to_array (Pat.Region_set.nodes forest) in
  let parent = Pat.Region_set.parents forest in
  let first_past a =
    Stdx.Sorted_array.lower_bound ~cmp:Pat.Region.compare a
      (Pat.Region.make ~start:from ~stop:max_int)
  in
  let k = first_past u in
  let depth = Array.make (Array.length u - k) 0 in
  let rec depth_of i =
    if i < 0 then -1 else if i >= k then depth.(i - k) else depth_of parent.(i) + 1
  in
  for i = k to Array.length u - 1 do
    depth.(i - k) <- depth_of parent.(i) + 1
  done;
  let cmp = Int.compare in
  List.split
    (List.map
       (fun name ->
         let regions, mps =
           match List.find_opt (fun (n, _, _) -> n = name) stats with
           | Some (_, regions, mps) -> (regions, mps)
           | None -> (0, 0)
         in
         let hist = Array.make depth_buckets 0 in
         Option.iter
           (Array.iteri (fun d c ->
                let b = min d (depth_buckets - 1) in
                hist.(b) <- hist.(b) + c))
           (List.assoc_opt name depths);
         let rs = Pat.Region_set.to_array (Pat.Instance.find instance name) in
         let first = first_past rs in
         let mps = ref mps and i = ref k in
         for j = first to Array.length rs - 1 do
           let r = rs.(j) in
           mps :=
             !mps
             + Stdx.Sorted_array.lower_bound ~cmp starts r.stop
             - Stdx.Sorted_array.lower_bound ~cmp starts r.start;
           while Pat.Region.compare u.(!i) r < 0 do
             incr i
           done;
           let b = min depth.(!i - k) (depth_buckets - 1) in
           hist.(b) <- hist.(b) + 1
         done;
         (* trim trailing empty buckets so flat instances stay compact *)
         let last = ref 0 in
         Array.iteri (fun i c -> if c > 0 then last := i) hist;
         ( (name, regions + Array.length rs - first, !mps),
           (name, Array.sub hist 0 (!last + 1)) ))
       (Pat.Instance.names instance))

(* [base] is the entry [instance] extends, if any: its figures cover
   its first [length] bytes.  An entry written before the figures
   existed has none, and the new ones are computed in full. *)
let store_entry t ~source ~schema ~index_names ~text ~index_file ~base instance =
  Pat.Index_store.save ~path:(Filename.concat t.dir index_file) instance;
  let stats, depths =
    let names = Pat.Instance.names instance in
    match base with
    | Some b
      when List.map (fun (n, _, _) -> n) b.stats = names
           && List.map fst b.depths = names ->
        instance_figures ~from:b.length ~stats:b.stats ~depths:b.depths instance
    | _ -> instance_figures ~from:0 ~stats:[] ~depths:[] instance
  in
  let e =
    {
      source;
      schema;
      index_names;
      length = Pat.Text.length text;
      digest = fingerprint text;
      version = Pat.Index_store.format_version;
      index_file;
      stats;
      depths;
    }
  in
  let entries' =
    match find t source with
    | None -> t.entries @ [ e ]
    | Some old ->
        if old.index_file <> index_file then
          Instance_cache.remove t.cache old.index_file;
        List.map (fun o -> if o.source = source then e else o) t.entries
  in
  Instance_cache.add t.cache e.index_file instance;
  commit t entries';
  e

let build_instance view text ~index_names =
  Fschema.View.index_file view text ~keep:index_names

(* Index files are immutable once a generation references them, so a
   rebuild or extension writes under a generation-suffixed name instead
   of overwriting the file a pinned snapshot may still be reading.  The
   first build of a source keeps the plain name (nothing can reference
   it yet). *)
let index_file_for ?gen source =
  let stem = Filename.remove_extension (Filename.basename source) in
  let tag = String.sub (Digest.to_hex (Digest.string source)) 0 12 in
  let suffix = match gen with None | Some 0 -> "" | Some g -> Printf.sprintf "-g%d" g in
  Filename.concat indices_subdir (Printf.sprintf "%s-%s%s.idx" stem tag suffix)

let add t ~schema ?index source =
  match Schemas.find_result schema with
  | Error e -> Error e
  | Ok view -> begin
      match find t source with
      | Some e ->
          Error
            (Printf.sprintf "%s is already catalogued (schema %s)" e.source
               e.schema)
      | None ->
          if not (Sys.file_exists source) then Error (source ^ ": no such file")
          else begin
            let indexable =
              Fschema.Grammar.indexable view.Fschema.View.grammar
            in
            let index_names =
              match index with
              | Some names -> List.sort_uniq String.compare names
              | None -> indexable
            in
            match
              List.find_opt (fun n -> not (List.mem n indexable)) index_names
            with
            | Some bad ->
                Error
                  (Printf.sprintf "%s is not an indexable region name of %s"
                     bad schema)
            | None ->
            let text = Pat.Text.of_file source in
            match build_instance view text ~index_names with
            | Error e -> Error (source ^ ": " ^ e)
            | Ok instance ->
                let index_file =
                  let plain = index_file_for source in
                  (* a leftover file under the plain name (dropped and
                     re-added source) may still be pinned by an old
                     generation — never overwrite it *)
                  if Sys.file_exists (Filename.concat t.dir plain) then
                    index_file_for ~gen:(t.generation + 1) source
                  else plain
                in
                Ok
                  (store_entry t ~source ~schema ~index_names ~text
                     ~index_file ~base:None instance)
          end
    end

type refresh = Unchanged | Extended of { added_bytes : int } | Rebuilt of string

(* Rebuild an entry's instance from its source's text, persisting the
   result.  The shared bottom of refresh-rebuilds and heals. *)
let rebuild_instance t e text =
  match Schemas.find_result e.schema with
  | Error msg -> Error msg
  | Ok view -> begin
      match build_instance view text ~index_names:e.index_names with
      | Error msg -> Error (e.source ^ ": " ^ msg)
      | Ok instance ->
          let (_ : entry) =
            store_entry t ~source:e.source ~schema:e.schema
              ~index_names:e.index_names ~text
              ~index_file:(index_file_for ~gen:(t.generation + 1) e.source)
              ~base:None instance
          in
          Ok instance
    end

let reread_and_rebuild t e =
  match Pat.Text.of_file e.source with
  | exception Sys_error msg -> Error msg
  | text -> rebuild_instance t e text

(* Read through the instance cache: on a miss the index file is read,
   checksummed and decoded, and the instance cached under its file name. *)
let load_cached t e =
  match Instance_cache.find t.cache e.index_file with
  | Some instance -> Ok instance
  | None ->
      Result.map
        (fun instance ->
          Instance_cache.add t.cache e.index_file instance;
          instance)
        (Pat.Index_store.load_result ~path:(index_path t e))

(* Self-healing load: a missing/corrupt/outdated index is transparently
   rebuilt from its source while serving the request.  Only when the
   source is gone too is there genuinely no path to the data. *)
let load_persisted t e =
  match load_cached t e with
  | Ok instance -> Ok instance
  | Error err -> begin
      let msg = Pat.Index_store.error_message err in
      if not (Sys.file_exists e.source) then
        Error (msg ^ "; source file is missing, cannot heal")
      else begin
        match reread_and_rebuild t e with
        | Ok instance ->
            Obs.Metrics.incr catalog_healed;
            if Obs.Trace.enabled () then
              Obs.Trace.instant "catalog.heal"
                ~attrs:
                  [
                    ("source", Obs.Trace.Str e.source);
                    ("reason", Obs.Trace.Str msg);
                  ];
            Ok instance
        | Error heal_msg -> Error (msg ^ "; heal failed: " ^ heal_msg)
      end
    end

(* A snapshot load never heals or commits: a pinned generation's bytes
   are immutable, and rebuilding from a since-changed source could not
   reproduce them anyway.  The cache is keyed by index file name —
   unique per generation — so snapshot and current loads share it
   without aliasing. *)
let snapshot_load s source =
  match snapshot_find s source with
  | None ->
      Error
        (Printf.sprintf "%s is not in snapshot generation %d" source s.s_gen)
  | Some e ->
      Result.map_error Pat.Index_store.error_message (load_cached s.s_cat e)

let rebuild t e text ~reason =
  Result.map
    (fun (_ : Pat.Instance.t) -> Rebuilt reason)
    (rebuild_instance t e text)

let extend t e ~old_len new_text =
  match Schemas.find_result e.schema with
  | Error msg -> Error msg
  | Ok view -> begin
      (* an old index that does not load is rebuilt below, once, from
         the text in hand *)
      match
        Result.bind
          (Result.map_error Pat.Index_store.error_message (load_cached t e))
          (fun old_instance ->
            Incremental.extend_instance view ~old_instance ~old_len new_text)
      with
      | Ok instance ->
          let added_bytes = Pat.Text.length new_text - old_len in
          let (_ : entry) =
            store_entry t ~source:e.source ~schema:e.schema
              ~index_names:e.index_names ~text:new_text
              ~index_file:(index_file_for ~gen:(t.generation + 1) e.source)
              ~base:(Some e) instance
          in
          Obs.Metrics.incr catalog_extended;
          Ok (Extended { added_bytes })
      | Error why ->
          (* incremental maintenance is an optimisation; any failure
             degrades to the always-correct full rebuild *)
          rebuild t e new_text ~reason:("incremental failed: " ^ why)
    end

(* [check] probes an index whose source fingerprint is current. *)
let refresh_by ~check t source =
  Obs.Trace.with_span "catalog.refresh"
    ~attrs:(fun () -> [ ("source", Obs.Trace.Str source) ])
  @@ fun () ->
  match find t source with
  | None -> Error (source ^ " is not in the catalog")
  | Some e -> begin
      let healing r =
        Result.map (fun r -> Obs.Metrics.incr catalog_healed; r) r
      in
      match staleness_by ~check t e with
      | Source_missing, _ | _, None -> Error (source ^ ": source file is missing")
      | Fresh, _ -> Ok Unchanged
      | Index_missing, Some text ->
          healing (rebuild t e text ~reason:"index file missing")
      | Index_unreadable reason, Some text -> healing (rebuild t e text ~reason)
      | Changed, Some text -> rebuild t e text ~reason:"contents changed"
      | Appended { old_len; _ }, Some text -> extend t e ~old_len text
    end

let refresh t source = refresh_by ~check:verify_index t source

(* The pre-pass of a query that loads every entry it refreshes: a
   current index is taken on its manifest's format version, and the
   load that follows checks its header and checksum as it reads it
   (healing a damaged one), so the file is read and hashed once. *)
let refresh_for_load t source = refresh_by ~check:(fun _ -> Ok ()) t source

(* Per-entry results: one corrupt source must not block refresh of the
   healthy ones, so every entry is attempted and reports its own
   outcome. *)
let refresh_all t = List.map (fun e -> (e.source, refresh t e.source)) t.entries

(* ---------------- serving instances ---------------- *)

let load t source =
  Obs.Trace.with_span "catalog.load"
    ~attrs:(fun () -> [ ("source", Obs.Trace.Str source) ])
  @@ fun () ->
  match find t source with
  | None -> Error (source ^ " is not in the catalog")
  | Some e -> load_persisted t e

let pp_refresh ppf = function
  | Unchanged -> Format.pp_print_string ppf "unchanged"
  | Extended { added_bytes } ->
      Format.fprintf ppf "extended incrementally (+%d bytes)" added_bytes
  | Rebuilt reason -> Format.fprintf ppf "rebuilt (%s)" reason

(* ---------------- offline repair ---------------- *)

type repair_action =
  | Healed of string
  | Quarantined of string
  | Removed_orphan
  | Collapsed_generation of int

let drop_entry t e =
  let entries' = List.filter (fun o -> o.source <> e.source) t.entries in
  Instance_cache.remove t.cache e.index_file;
  commit t entries';
  Obs.Metrics.incr catalog_quarantined

(* Collapse every generation image other than the current one — the
   offline complement of {!retire_unreferenced} that also handles
   {e future} strays (a crash between writing MANIFEST.g<next> and
   swapping CATALOG leaves next's image and index files with no
   committed generation referencing them). *)
let collapse_stray_generations t =
  let current = t.generation in
  let pinned = pinned_generations t |> List.map fst in
  let gens = list_generations t in
  let strays =
    List.filter (fun g -> g <> current && not (List.mem g pinned)) gens
  in
  if strays = [] then []
  else begin
    let kept = List.filter (fun g -> not (List.mem g strays)) gens in
    let referenced =
      List.map (fun e -> e.index_file) t.entries
      @ List.concat_map (files_of_generation t) kept
    in
    List.concat_map
      (fun g ->
        let removed =
          List.filter_map
            (fun rel ->
              if List.mem rel referenced then None
              else begin
                match Sys.remove (Filename.concat t.dir rel) with
                | () -> Some (rel, Removed_orphan)
                | exception Sys_error _ -> None
              end)
            (files_of_generation t g)
        in
        (try Sys.remove (gen_manifest_path t g) with Sys_error _ -> ());
        Obs.Metrics.incr catalog_retired;
        removed @ [ (gen_manifest_rel g, Collapsed_generation g) ])
      strays
  end

let repair t =
  let actions = ref [] in
  let note source a = actions := (source, a) :: !actions in
  List.iter
    (fun e ->
      let heal_or_quarantine reason =
        match reread_and_rebuild t e with
        | Ok (_ : Pat.Instance.t) ->
            Obs.Metrics.incr catalog_healed;
            note e.source (Healed reason)
        | Error msg ->
            drop_entry t e;
            note e.source (Quarantined (reason ^ "; rebuild failed: " ^ msg))
      in
      match staleness t e with
      | Fresh | Appended _ | Changed -> ()  (* refresh's job, not repair's *)
      | Source_missing ->
          drop_entry t e;
          note e.source (Quarantined "source file is missing; entry dropped")
      | Index_missing -> heal_or_quarantine "index file missing"
      | Index_unreadable reason -> heal_or_quarantine reason)
    t.entries;
  (* collapse stray generation images (crashed commits, unreaped
     retirees), then sweep index files nothing references any more *)
  List.iter (fun (key, a) -> note key a) (collapse_stray_generations t);
  List.iter
    (fun rel ->
      (try Sys.remove (Filename.concat t.dir rel) with Sys_error _ -> ());
      note rel Removed_orphan)
    (orphan_index_files t);
  List.rev !actions

let pp_repair_action ppf = function
  | Healed reason -> Format.fprintf ppf "healed (%s)" reason
  | Quarantined reason -> Format.fprintf ppf "quarantined (%s)" reason
  | Removed_orphan -> Format.pp_print_string ppf "removed orphan index file"
  | Collapsed_generation g ->
      Format.fprintf ppf "collapsed stray generation %d" g
