type kind = Transient | Permanent | Corruption

let kind_to_string = function
  | Transient -> "transient"
  | Permanent -> "permanent"
  | Corruption -> "corruption"

exception Injected of { site : string; kind : kind }

let () =
  Printexc.register_printer (function
    | Injected { site; kind } ->
        Some
          (Printf.sprintf "injected %s fault at %s" (kind_to_string kind) site)
    | _ -> None)

type config = {
  seed : int;
  transient : float;
  permanent : float;
  corrupt : float;
  delay_p : float;
  delay_ms : float;
  burst : int option;
  only : string option;
  crashes : (string * int) list;
}

let empty =
  {
    seed = 0;
    transient = 0.;
    permanent = 0.;
    corrupt = 0.;
    delay_p = 0.;
    delay_ms = 0.;
    burst = None;
    only = None;
    crashes = [];
  }

let parse spec =
  let ( let* ) = Result.bind in
  let prob name v =
    match float_of_string_opt v with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | _ -> Error (Printf.sprintf "%s wants a probability in [0,1], got %S" name v)
  in
  let directive acc item =
    let* acc = acc in
    match String.index_opt item ':' with
    | None -> Error (Printf.sprintf "malformed fault directive %S (want KEY:VALUE)" item)
    | Some i ->
        let key = String.sub item 0 i in
        let v = String.sub item (i + 1) (String.length item - i - 1) in
        (match key with
        | "seed" -> (
            match int_of_string_opt v with
            | Some n -> Ok { acc with seed = n }
            | None -> Error (Printf.sprintf "seed wants an integer, got %S" v))
        | "transient" ->
            let* p = prob "transient" v in
            Ok { acc with transient = p }
        | "permanent" ->
            let* p = prob "permanent" v in
            Ok { acc with permanent = p }
        | "corrupt" ->
            let* p = prob "corrupt" v in
            Ok { acc with corrupt = p }
        | "delay" -> (
            match String.index_opt v '@' with
            | None -> Error "delay wants P@MS"
            | Some j ->
                let* p = prob "delay" (String.sub v 0 j) in
                (match
                   float_of_string_opt
                     (String.sub v (j + 1) (String.length v - j - 1))
                 with
                | Some ms when ms >= 0. ->
                    Ok { acc with delay_p = p; delay_ms = ms }
                | _ -> Error "delay wants P@MS with MS >= 0"))
        | "crash" -> (
            match String.index_opt v '@' with
            | None -> Error "crash wants SITE@N"
            | Some j -> (
                let site = String.sub v 0 j in
                match
                  int_of_string_opt
                    (String.sub v (j + 1) (String.length v - j - 1))
                with
                | Some n when n >= 1 && site <> "" ->
                    Ok { acc with crashes = (site, n) :: acc.crashes }
                | _ -> Error "crash wants SITE@N with N >= 1"))
        | "burst" -> (
            match int_of_string_opt v with
            | Some k when k >= 1 -> Ok { acc with burst = Some k }
            | _ -> Error (Printf.sprintf "burst wants an integer >= 1, got %S" v))
        | "only" ->
            if v = "" then Error "only wants a site name"
            else Ok { acc with only = Some v }
        | _ -> Error (Printf.sprintf "unknown fault directive %S" key))
  in
  let items =
    List.filter (fun s -> s <> "") (String.split_on_char ',' (String.trim spec))
  in
  if items = [] then Error "empty fault spec"
  else List.fold_left directive (Ok empty) items

(* Mutable schedule state, shared across domains. *)
type state = {
  config : config;
  rng : Prng.t;
  hits : (string, int) Hashtbl.t;  (* visits per site *)
  consec : (string, int) Hashtbl.t;  (* consecutive injections per site *)
}

let lock = Mutex.create ()
let state : state option ref = ref None
let env_loaded = ref false
let injected = Obs.Metrics.counter "fault.injected"
let crashes = Obs.Metrics.counter "fault.crashes"

let set_locked config =
  state :=
    Option.map
      (fun config ->
        {
          config;
          rng = Prng.create config.seed;
          hits = Hashtbl.create 8;
          consec = Hashtbl.create 8;
        })
      config

let set config =
  Mutex.lock lock;
  env_loaded := true;
  set_locked config;
  Mutex.unlock lock

let ensure () =
  if not !env_loaded then begin
    Mutex.lock lock;
    if not !env_loaded then begin
      env_loaded := true;
      match Sys.getenv_opt "OQF_FAULTS" with
      | None | Some "" -> ()
      | Some spec -> (
          match parse spec with
          | Ok c -> set_locked (Some c)
          | Error e ->
              Printf.eprintf "oqf: warning: ignoring OQF_FAULTS: %s\n%!" e)
    end;
    Mutex.unlock lock
  end

let active () =
  ensure ();
  !state <> None

let bump tbl site =
  let n = (try Hashtbl.find tbl site with Not_found -> 0) + 1 in
  Hashtbl.replace tbl site n;
  n

(* What one visit to [site] should do, decided under the lock so the
   PRNG stream and counters stay coherent across domains. *)
type action = Nothing | Delay of float | Raise of kind | Crash

let decide st site =
  let c = st.config in
  match c.only with
  | Some s when s <> site -> Nothing
  | _ ->
      let n = bump st.hits site in
      if List.exists (fun (s, k) -> s = site && k = n) c.crashes then Crash
      else begin
        let delay =
          c.delay_p > 0. && Prng.float st.rng 1.0 < c.delay_p
        in
        let may_inject =
          match c.burst with
          | None -> true
          | Some b -> (try Hashtbl.find st.consec site with Not_found -> 0) < b
        in
        let fault =
          if may_inject && c.transient > 0. && Prng.float st.rng 1.0 < c.transient
          then Some Transient
          else if
            may_inject && c.permanent > 0. && Prng.float st.rng 1.0 < c.permanent
          then Some Permanent
          else None
        in
        match fault with
        | Some kind ->
            ignore (bump st.consec site);
            Raise kind
        | None ->
            Hashtbl.replace st.consec site 0;
            if delay then Delay c.delay_ms else Nothing
      end

let spin_ms ms =
  if ms > 0. then begin
    let t0 = Obs.Trace.now_ms () in
    while Obs.Trace.now_ms () -. t0 < ms do
      Domain.cpu_relax ()
    done
  end

let hit site =
  ensure ();
  match !state with
  | None -> ()
  | Some _ -> (
      Mutex.lock lock;
      let action =
        match !state with Some st -> decide st site | None -> Nothing
      in
      Mutex.unlock lock;
      match action with
      | Nothing -> ()
      | Delay ms -> spin_ms ms
      | Raise kind ->
          Obs.Metrics.incr injected;
          if Obs.Trace.enabled () then
            Obs.Trace.instant "fault.injected"
              ~attrs:
                [
                  ("site", Obs.Trace.Str site);
                  ("kind", Obs.Trace.Str (kind_to_string kind));
                ];
          raise (Injected { site; kind })
      | Crash ->
          Obs.Metrics.incr crashes;
          Printf.eprintf "oqf: injected crash at %s\n%!" site;
          Stdlib.exit 137)

let corrupting site payload =
  ensure ();
  match !state with
  | None -> payload
  | Some _ ->
      Mutex.lock lock;
      let inject =
        match !state with
        | None -> false
        | Some st -> (
            let c = st.config in
            match c.only with
            | Some s when s <> site -> false
            | _ ->
                let may =
                  match c.burst with
                  | None -> true
                  | Some b ->
                      (try Hashtbl.find st.consec site with Not_found -> 0) < b
                in
                if may && c.corrupt > 0. && Prng.float st.rng 1.0 < c.corrupt
                then begin
                  ignore (bump st.consec site);
                  true
                end
                else begin
                  Hashtbl.replace st.consec site 0;
                  false
                end)
      in
      Mutex.unlock lock;
      if inject && String.length payload > 0 then begin
        Obs.Metrics.incr injected;
        let b = Bytes.of_string payload in
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        Bytes.to_string b
      end
      else payload
