type conn = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  mutable next_id : int;
}

let connect ?(wait_ms = 0.) path =
  let deadline = Obs.Trace.now_ms () +. wait_ms in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd; reader = Protocol.reader fd; next_id = 0 }
    | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Obs.Trace.now_ms () < deadline then begin
          Thread.delay 0.02;
          attempt ()
        end
        else
          Error
            (Printf.sprintf "cannot connect to %s: %s" path
               (Unix.error_message err))
  in
  attempt ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let is_terminal = function
  | Protocol.Row _ | Protocol.Region _ -> false
  | Protocol.Done _ | Protocol.Diagnostics _ | Protocol.Overloaded _
  | Protocol.Failed _ | Protocol.Pong _ | Protocol.Stats_reply _
  | Protocol.Bye _ ->
      true

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let stream c req ~on_event =
  c.next_id <- c.next_id + 1;
  let id = c.next_id in
  match write_all c.fd (Protocol.render_request id req ^ "\n") with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "send failed: %s" (Unix.error_message err))
  | () ->
      let rec next () =
        match Protocol.read_line c.reader with
        | `Eof -> Error "connection closed by server"
        | `Overflow -> Error "oversized response line"
        | `Line "" -> next ()
        | `Line line -> (
            match Protocol.parse_response line with
            | Error e -> Error (Printf.sprintf "bad response: %s (%s)" e line)
            | Ok ev ->
                on_event ev;
                if is_terminal ev then Ok ev else next ())
      in
      next ()

let request c req =
  let events = ref [] in
  match stream c req ~on_event:(fun ev -> events := ev :: !events) with
  | Ok _ -> Ok (List.rev !events)
  | Error _ as e -> e

(* A one-shot HTTP GET against the daemon's facade — enough for
   scraping /metrics and /health without depending on curl. *)
let http_get ~port path =
  let host = "127.0.0.1" in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    write_all fd
      (Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
         path host);
    let buf = Buffer.create 1024 in
    let chunk = Bytes.create 4096 in
    let rec drain () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    in
    drain ();
    Buffer.contents buf
  with
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "GET %s:%d%s: %s" host port path
           (Unix.error_message err))
  | raw -> (
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* split head from body at the first blank line *)
      let sep = "\r\n\r\n" in
      let n = String.length raw and m = String.length sep in
      let rec find i =
        if i + m > n then None
        else if String.sub raw i m = sep then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> Error "malformed HTTP response (no header terminator)"
      | Some i -> (
          let head = String.sub raw 0 i in
          let body = String.sub raw (i + m) (n - i - m) in
          match String.split_on_char ' ' head with
          | _ :: code :: _ -> Ok (int_of_string_opt code |> Option.value ~default:0, body)
          | _ -> Error "malformed HTTP status line"))
