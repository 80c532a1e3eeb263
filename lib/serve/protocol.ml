let max_line = 65536

type query_req = {
  schema : string;
  text : string;
  timeout_ms : float option;
  fail_policy : Exec.Driver.fail_policy option;
  force : bool;
  workload : string;
}

type request =
  | Query of query_req
  | Rexpr of query_req
  | Ping
  | Stats
  | Shutdown

type response =
  | Row of { id : int; file : string; values : string list }
  | Region of { id : int; file : string; start : int; stop : int }
  | Done of {
      id : int;
      rows : int;
      cached : bool;
      degraded : (string * string * string) list;
      trace : string;  (** the request's trace id; [""] when unknown *)
    }
  | Diagnostics of { id : int; diagnostics : Obs.Jsonx.t list }
  | Overloaded of { id : int; active : int; queued : int }
  | Failed of { id : int; message : string }
  | Pong of { id : int }
  | Stats_reply of { id : int; payload : Obs.Jsonx.t }
  | Bye of { id : int }

(* --- requests ------------------------------------------------------ *)

let parse_request line =
  match Obs.Jsonx.parse line with
  | Error e -> Error (0, e)
  | Ok json -> (
      let id =
        match Option.bind (Obs.Jsonx.member "id" json) Obs.Jsonx.num with
        | Some f -> int_of_float f
        | None -> 0
      in
      let fail id fmt = Printf.ksprintf (fun m -> Error (id, m)) fmt in
      let query_req ~text_key =
        match
          ( Option.bind (Obs.Jsonx.member "schema" json) Obs.Jsonx.str,
            Option.bind (Obs.Jsonx.member text_key json) Obs.Jsonx.str )
        with
        | None, _ -> fail id "missing string member \"schema\""
        | _, None -> fail id "missing string member %S" text_key
        | Some schema, Some text -> (
            let timeout_ms =
              Option.bind (Obs.Jsonx.member "timeout_ms" json) Obs.Jsonx.num
            in
            let force =
              Option.value ~default:false
                (Option.bind (Obs.Jsonx.member "force" json) Obs.Jsonx.bool)
            in
            let workload =
              Option.value ~default:""
                (Option.bind (Obs.Jsonx.member "workload" json) Obs.Jsonx.str)
            in
            match Option.bind (Obs.Jsonx.member "fail_policy" json) Obs.Jsonx.str with
            | None ->
                Ok { schema; text; timeout_ms; fail_policy = None; force; workload }
            | Some p -> (
                match Exec.Driver.fail_policy_of_string p with
                | Ok fp ->
                    Ok
                      {
                        schema;
                        text;
                        timeout_ms;
                        fail_policy = Some fp;
                        force;
                        workload;
                      }
                | Error e -> fail id "%s" e))
      in
      match Option.bind (Obs.Jsonx.member "op" json) Obs.Jsonx.str with
      | None -> fail id "missing string member \"op\""
      | Some "ping" -> Ok (id, Ping)
      | Some "stats" -> Ok (id, Stats)
      | Some "shutdown" -> Ok (id, Shutdown)
      | Some "query" -> (
          match query_req ~text_key:"q" with
          | Ok q -> Ok (id, Query q)
          | Error e -> Error e)
      | Some "rexpr" -> (
          match query_req ~text_key:"expr" with
          | Ok q -> Ok (id, Rexpr q)
          | Error e -> Error e)
      | Some op -> fail id "unknown op %S" op)

let render_request id req =
  let base op = [ ("id", Obs.Jsonx.Num (float_of_int id)); ("op", Obs.Jsonx.Str op) ] in
  let query op text_key (q : query_req) =
    base op
    @ [ ("schema", Obs.Jsonx.Str q.schema); (text_key, Obs.Jsonx.Str q.text) ]
    @ (match q.timeout_ms with
      | Some t -> [ ("timeout_ms", Obs.Jsonx.Num t) ]
      | None -> [])
    @ (match q.fail_policy with
      | Some fp ->
          [ ("fail_policy", Obs.Jsonx.Str (Exec.Driver.fail_policy_to_string fp)) ]
      | None -> [])
    @ (if q.force then [ ("force", Obs.Jsonx.Bool true) ] else [])
    @ if q.workload <> "" then [ ("workload", Obs.Jsonx.Str q.workload) ] else []
  in
  Obs.Jsonx.to_string
    (Obs.Jsonx.Obj
       (match req with
       | Ping -> base "ping"
       | Stats -> base "stats"
       | Shutdown -> base "shutdown"
       | Query q -> query "query" "q" q
       | Rexpr q -> query "rexpr" "expr" q))

(* --- responses ----------------------------------------------------- *)

let event id ev rest =
  Obs.Jsonx.Obj
    (("id", Obs.Jsonx.Num (float_of_int id)) :: ("ev", Obs.Jsonx.Str ev) :: rest)

let render_response resp =
  Obs.Jsonx.to_string
    (match resp with
    | Row { id; file; values } ->
        event id "row"
          [
            ("file", Obs.Jsonx.Str file);
            ("values", Obs.Jsonx.Arr (List.map (fun v -> Obs.Jsonx.Str v) values));
          ]
    | Region { id; file; start; stop } ->
        event id "region"
          [
            ("file", Obs.Jsonx.Str file);
            ("start", Obs.Jsonx.Num (float_of_int start));
            ("stop", Obs.Jsonx.Num (float_of_int stop));
          ]
    | Done { id; rows; cached; degraded; trace } ->
        event id "done"
          [
            ("rows", Obs.Jsonx.Num (float_of_int rows));
            ("cached", Obs.Jsonx.Bool cached);
            ("trace", Obs.Jsonx.Str trace);
            ( "degraded",
              Obs.Jsonx.Arr
                (List.map
                   (fun (file, action, detail) ->
                     Obs.Jsonx.Obj
                       [
                         ("file", Obs.Jsonx.Str file);
                         ("action", Obs.Jsonx.Str action);
                         ("detail", Obs.Jsonx.Str detail);
                       ])
                   degraded) );
          ]
    | Diagnostics { id; diagnostics } ->
        event id "diagnostics" [ ("diagnostics", Obs.Jsonx.Arr diagnostics) ]
    | Overloaded { id; active; queued } ->
        event id "overloaded"
          [
            ("active", Obs.Jsonx.Num (float_of_int active));
            ("queued", Obs.Jsonx.Num (float_of_int queued));
          ]
    | Failed { id; message } -> event id "error" [ ("message", Obs.Jsonx.Str message) ]
    | Pong { id } -> event id "pong" []
    | Stats_reply { id; payload } -> event id "stats" [ ("payload", payload) ]
    | Bye { id } -> event id "bye" [])

let parse_response line =
  match Obs.Jsonx.parse line with
  | Error e -> Error e
  | Ok json -> (
      let id =
        match Option.bind (Obs.Jsonx.member "id" json) Obs.Jsonx.num with
        | Some f -> int_of_float f
        | None -> 0
      in
      let str_member k =
        match Option.bind (Obs.Jsonx.member k json) Obs.Jsonx.str with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "missing string member %S" k)
      in
      let int_member k =
        match Option.bind (Obs.Jsonx.member k json) Obs.Jsonx.num with
        | Some f -> Ok (int_of_float f)
        | None -> Error (Printf.sprintf "missing number member %S" k)
      in
      let ( let* ) = Result.bind in
      match Option.bind (Obs.Jsonx.member "ev" json) Obs.Jsonx.str with
      | None -> Error "missing string member \"ev\""
      | Some "row" ->
          let* file = str_member "file" in
          let values =
            match Obs.Jsonx.member "values" json with
            | Some (Obs.Jsonx.Arr vs) -> List.filter_map Obs.Jsonx.str vs
            | _ -> []
          in
          Ok (Row { id; file; values })
      | Some "region" ->
          let* file = str_member "file" in
          let* start = int_member "start" in
          let* stop = int_member "stop" in
          Ok (Region { id; file; start; stop })
      | Some "done" ->
          let* rows = int_member "rows" in
          let cached =
            Option.value ~default:false
              (Option.bind (Obs.Jsonx.member "cached" json) Obs.Jsonx.bool)
          in
          let degraded =
            match Obs.Jsonx.member "degraded" json with
            | Some (Obs.Jsonx.Arr ds) ->
                List.filter_map
                  (fun d ->
                    match
                      ( Option.bind (Obs.Jsonx.member "file" d) Obs.Jsonx.str,
                        Option.bind (Obs.Jsonx.member "action" d) Obs.Jsonx.str,
                        Option.bind (Obs.Jsonx.member "detail" d) Obs.Jsonx.str )
                    with
                    | Some f, Some a, Some det -> Some (f, a, det)
                    | _ -> None)
                  ds
            | _ -> []
          in
          let trace =
            Option.value ~default:""
              (Option.bind (Obs.Jsonx.member "trace" json) Obs.Jsonx.str)
          in
          Ok (Done { id; rows; cached; degraded; trace })
      | Some "diagnostics" ->
          let diagnostics =
            match Obs.Jsonx.member "diagnostics" json with
            | Some (Obs.Jsonx.Arr ds) -> ds
            | _ -> []
          in
          Ok (Diagnostics { id; diagnostics })
      | Some "overloaded" ->
          let* active = int_member "active" in
          let* queued = int_member "queued" in
          Ok (Overloaded { id; active; queued })
      | Some "error" ->
          let* message = str_member "message" in
          Ok (Failed { id; message })
      | Some "pong" -> Ok (Pong { id })
      | Some "stats" ->
          let payload =
            Option.value ~default:Obs.Jsonx.Null (Obs.Jsonx.member "payload" json)
          in
          Ok (Stats_reply { id; payload })
      | Some "bye" -> Ok (Bye { id })
      | Some ev -> Error (Printf.sprintf "unknown event %S" ev))

(* --- streamed lines -------------------------------------------------- *)

(* A stream's row and region lines are written piecewise into one fixed
   buffer, which goes out through [write] when full (a line may span
   the write) and at [flush]: no line or value is built as a string. *)
type out = {
  buf : Bytes.t;
  mutable len : int;
  write : Bytes.t -> int -> int -> unit;
  escape : string -> unit;  (** [put] of the string's JSON escape *)
}

let flush o =
  let n = o.len in
  o.len <- 0;
  o.write o.buf 0 n

let rec put o s off n =
  let room = Bytes.length o.buf - o.len in
  if n <= room then begin
    Bytes.blit_string s off o.buf o.len n;
    o.len <- o.len + n
  end
  else begin
    Bytes.blit_string s off o.buf o.len room;
    o.len <- Bytes.length o.buf;
    flush o;
    put o s (off + room) (n - room)
  end

let put_string o s = put o s 0 (String.length s)

let put_char o c =
  if o.len = Bytes.length o.buf then flush o;
  Bytes.unsafe_set o.buf o.len c;
  o.len <- o.len + 1

(* [n] as [Obs.Jsonx] prints [Num (float_of_int n)] *)
let put_int o n =
  if n > -1_000_000_000_000_000 && n < 1_000_000_000_000_000 then
    put_string o (string_of_int n)
  else put_string o (Obs.Jsonx.to_string (Obs.Jsonx.Num (float_of_int n)))

let out write =
  let buf = Bytes.create (16 * 1024) in
  let rec o =
    {
      buf;
      len = 0;
      write;
      escape = (fun s -> Obs.Jsonx.iter_escaped emit s);
    }
  and emit s off n = put o s off n in
  o

(* [{"id":…,"ev":…,"file":…], rendered by [render_response]'s code *)
let line_head id ev file =
  let s = Obs.Jsonx.to_string (event id ev [ ("file", Obs.Jsonx.Str file) ]) in
  String.sub s 0 (String.length s - 1)

let rec put_values o = function
  | [] -> ()
  | v :: rest ->
      put_char o '"';
      Odb.Value.iter_display o.escape v;
      put_char o '"';
      if not (List.is_empty rest) then begin
        put_char o ',';
        put_values o rest
      end

let row_writer o ~id ~file =
  let head = line_head id "row" file ^ {|,"values":[|} in
  fun values ->
    put_string o head;
    put_values o values;
    put_string o "]}\n"

let region_writer o ~id ~file =
  let head = line_head id "region" file ^ {|,"start":|} in
  fun ~start ~stop ->
    put_string o head;
    put_int o start;
    put_string o {|,"stop":|};
    put_int o stop;
    put_string o "}\n"

(* --- bounded line framing ------------------------------------------ *)

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable buf : Buffer.t;
  mutable pending : string;  (** bytes read past the last newline *)
  mutable eof : bool;
}

let reader fd =
  {
    fd;
    chunk = Bytes.create 4096;
    buf = Buffer.create 256;
    pending = "";
    eof = false;
  }

let read_line t =
  let result = ref None in
  (* consume [s], appending to the current line until its newline;
     stash the rest in [pending] *)
  let feed s =
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.add_substring t.buf s 0 i;
        t.pending <- String.sub s (i + 1) (String.length s - i - 1);
        let line = Buffer.contents t.buf in
        Buffer.clear t.buf;
        if String.length line > max_line then result := Some `Overflow
        else result := Some (`Line line)
    | None ->
        (* no newline yet: grow the line, but give up buffering once
           past the cap — keep only a sentinel length so the eventual
           newline still reports overflow without holding the bytes *)
        if Buffer.length t.buf <= max_line then Buffer.add_string t.buf s
        else begin
          Buffer.clear t.buf;
          Buffer.add_string t.buf (String.make (max_line + 1) ' ')
        end
  in
  (if t.pending <> "" then begin
     let s = t.pending in
     t.pending <- "";
     feed s
   end);
  while !result = None && not t.eof do
    match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0
    | (exception
        Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)) ->
        t.eof <- true;
        if Buffer.length t.buf > 0 then begin
          (* final unterminated line *)
          let line = Buffer.contents t.buf in
          Buffer.clear t.buf;
          if String.length line > max_line then result := Some `Overflow
          else result := Some (`Line line)
        end
        else result := Some `Eof
    | len -> feed (Bytes.sub_string t.chunk 0 len)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  match !result with None -> `Eof | Some r -> r
