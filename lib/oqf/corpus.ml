(* The result-cache fingerprint is filled on first use and published
   through an [Atomic] under a lock, like a source's plan statistics:
   serve shares one corpus per generation across connection threads
   and worker domains, and [Lazy] is not domain-safe. *)
type fingerprint = { value : string option Atomic.t; lock : Mutex.t }

type t = {
  sources : (string * Execute.source) list;
  fingerprint : fingerprint;
}

let of_sources sources =
  {
    sources;
    fingerprint = { value = Atomic.make None; lock = Mutex.create () };
  }

let make view files ~index =
  let rec go acc = function
    | [] -> Ok (of_sources (List.rev acc))
    | (name, text) :: rest -> begin
        match Execute.make_source view text ~index with
        | Ok src -> go ((name, src) :: acc) rest
        | Error e -> Error (Printf.sprintf "%s: %s" name e)
      end
  in
  go [] files

let make_full view files =
  make view files
    ~index:(Fschema.Grammar.indexable view.Fschema.View.grammar)

(* The sources of [schema]'s entries, each instance read by [load].  A
   source plans with its entry's manifest statistics; an entry written
   before rstat/rdepth existed has none, and its source sweeps the
   instance instead.  An entry that fails to load fails the corpus, or
   under [degrade] is excluded with a degradation note. *)
let of_entries ~degrade ~load ~schema entries =
  match Oqf_catalog.Schemas.find_result schema with
  | Error e -> Error e
  | Ok view ->
      let rec go srcs degs = function
        | [] -> Ok (of_sources (List.rev srcs), List.rev degs)
        | (e : Oqf_catalog.Catalog.entry) :: rest when e.schema <> schema ->
            go srcs degs rest
        | e :: rest -> begin
            match load e.source with
            | Ok instance ->
                let src =
                  Execute.source_of_instance ~origin:Execute.Disk view
                    instance
                in
                let src =
                  if e.stats = [] || e.depths = [] then src
                  else
                    Execute.with_stats src (Oqf_cost.Stats.of_entries [ e ])
                in
                go ((e.source, src) :: srcs) degs rest
            | Error msg when degrade ->
                go srcs
                  (Degrade.make ~file:e.source Degrade.Excluded msg :: degs)
                  rest
            | Error msg -> Error (Printf.sprintf "%s: %s" e.source msg)
          end
      in
      go [] [] entries

let of_catalog catalog ~schema =
  Result.map fst
    (of_entries ~degrade:false
       ~load:(Oqf_catalog.Catalog.load catalog)
       ~schema
       (Oqf_catalog.Catalog.entries catalog))

(* Like [of_catalog], but an entry that cannot be served any more
   (index dead, source gone — Catalog.load already tried to heal) is
   excluded with a degradation note instead of failing the corpus. *)
let of_catalog_robust catalog ~schema =
  of_entries ~degrade:true
    ~load:(Oqf_catalog.Catalog.load catalog)
    ~schema
    (Oqf_catalog.Catalog.entries catalog)

(* The snapshot analogue of [of_catalog_robust]: every load goes
   through the pinned generation, read-only — no healing, no commits —
   so the corpus is byte-identical to the generation the caller
   pinned, no matter what the writer does meanwhile.  An unreadable
   index (the snapshot outlived a crashed disk, say) excludes its file
   with a degradation note. *)
let of_snapshot snapshot ~schema =
  of_entries ~degrade:true
    ~load:(Oqf_catalog.Catalog.snapshot_load snapshot)
    ~schema
    (Oqf_catalog.Catalog.snapshot_entries snapshot)

let files t = List.map fst t.sources
let source t name = List.assoc_opt name t.sources
let sources t = t.sources

let compute_fingerprint sources =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, (src : Execute.source)) ->
      let text = src.text in
      Buffer.add_string buf name;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int (Pat.Text.length text));
      Buffer.add_char buf ':';
      Buffer.add_string buf
        (Digest.to_hex (Digest.string (Pat.Text.unsafe_contents text)));
      Buffer.add_char buf ';')
    sources;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let fingerprint t =
  let { value; lock } = t.fingerprint in
  match Atomic.get value with
  | Some fp -> fp
  | None ->
      Mutex.protect lock (fun () ->
          match Atomic.get value with
          | Some fp -> fp
          | None ->
              let fp = compute_fingerprint t.sources in
              Atomic.set value (Some fp);
              fp)

type outcome = {
  rows : (string * Odb.Query_eval.row) list;
  per_file : (string * Execute.outcome) list;
  stats : Stdx.Stats.t;
}

let run ?optimize ?force ?plan_mode t q =
  let rec go rows per_file stats = function
    | [] ->
        Ok { rows = List.rev rows; per_file = List.rev per_file; stats }
    | (name, src) :: rest -> begin
        match Execute.run ?optimize ?force ?plan_mode src q with
        | Error e -> Error (Printf.sprintf "%s: %s" name e)
        | Ok r ->
            Stdx.Stats.add stats r.Execute.stats;
            go
              (List.rev_append
                 (List.map (fun row -> (name, row)) r.Execute.rows)
                 rows)
              ((name, r) :: per_file)
              stats rest
      end
  in
  go [] [] (Stdx.Stats.create ()) t.sources
