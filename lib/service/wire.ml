(* Line framing over a byte stream: accumulate reads in a per-stream
   buffer, peel off every complete line.  [\r\n] is accepted as [\n] so
   hand-typed sessions work from any terminal. *)

module Metrics = Estima_obs.Metrics
module Diag = Estima.Diag

let split_lines buffer =
  let data = Buffer.contents buffer in
  match String.rindex_opt data '\n' with
  | None -> []
  | Some last ->
      Buffer.clear buffer;
      Buffer.add_string buffer (String.sub data (last + 1) (String.length data - last - 1));
      String.sub data 0 last |> String.split_on_char '\n'
      |> List.map (fun line ->
             let n = String.length line in
             if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)

let default_max_buffer_bytes = 1 lsl 20

(* Per-stream framing state.  [discarding] is set after an oversized
   frame was shed: its bytes are dropped (bounded memory) until the next
   newline resynchronises the stream. *)
type stream = { buffer : Buffer.t; mutable discarding : bool }

let new_stream () = { buffer = Buffer.create 4096; discarding = false }

let count server name =
  Metrics.Counter.incr (Metrics.counter (Server.metrics server) name)

let frame_too_large server ~buffered ~limit =
  count server "estima_frame_too_large_total";
  count server "estima_errors_total";
  Protocol.error_response ~id:Json.Null ~v:1
    (Diag.make ~stage:Diag.Serve ~subject:"connection"
       (Diag.Frame_too_large { buffered; limit }))

(* Feed [n] freshly read bytes into the stream and return the complete
   lines now available, plus at most one typed [frame-too-large] error
   line when the residual (no newline yet) exceeded [limit]: the buffer
   is dropped and the stream discards until the next newline — an
   adversarial no-newline client costs one chunk of memory, not an
   unbounded buffer.  The error is returned rather than written here so
   the caller can emit it after the responses to the complete lines,
   which arrived first on the wire. *)
let ingest server stream ~limit chunk n =
  let data = Bytes.sub_string chunk 0 n in
  let data =
    if not stream.discarding then data
    else
      match String.index_opt data '\n' with
      | None -> ""
      | Some i ->
          stream.discarding <- false;
          String.sub data (i + 1) (String.length data - i - 1)
  in
  if data = "" then ([], None)
  else begin
    Buffer.add_string stream.buffer data;
    let lines = split_lines stream.buffer in
    let shed =
      if Buffer.length stream.buffer > limit then begin
        let buffered = Buffer.length stream.buffer in
        Buffer.clear stream.buffer;
        stream.discarding <- true;
        Some (frame_too_large server ~buffered ~limit)
      end
      else None
    in
    (lines, shed)
  end

(* EOF flush: a final line the peer never terminated is still a request
   (satellite fix — it used to be dropped silently).  The tail of a
   frame that was already shed as oversized stays dropped. *)
let final_lines stream =
  if stream.discarding then []
  else begin
    let lines = split_lines stream.buffer in
    let tail = Buffer.contents stream.buffer in
    Buffer.clear stream.buffer;
    if tail = "" then lines
    else
      let tail =
        let n = String.length tail in
        if tail.[n - 1] = '\r' then String.sub tail 0 (n - 1) else tail
      in
      lines @ [ tail ]
  end

let write_all fd s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
  go 0

let write_responses fd responses =
  match responses with
  | [] -> ()
  | responses -> write_all fd (String.concat "\n" responses ^ "\n")

let serve_stdio ?(max_buffer_bytes = default_max_buffer_bytes) server =
  let stream = new_stream () in
  let chunk = Bytes.create 65536 in
  let handle lines =
    match lines with
    | [] -> `Continue
    | lines ->
        let responses, verdict = Server.handle_batch server lines in
        write_responses Unix.stdout responses;
        verdict
  in
  let rec loop () =
    match Unix.read Unix.stdin chunk 0 (Bytes.length chunk) with
    | 0 -> ignore (handle (final_lines stream))
    | n -> (
        let lines, shed = ingest server stream ~limit:max_buffer_bytes chunk n in
        let verdict = handle lines in
        Option.iter (fun error -> write_responses Unix.stdout [ error ]) shed;
        match verdict with `Shutdown -> () | `Continue -> loop ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* [closed] makes every write path a no-op once the fd is gone: a send
   that hits a dead peer closes the connection, and any later send for
   the same batch (or the drain) must not touch the recycled fd — an
   fd-table lookup is not enough, since the kernel may reuse the number
   for a newly accepted client. *)
type connection = { fd : Unix.file_descr; stream : stream; mutable closed : bool }

let default_max_connections = 64

(* The listener loop shared by the Unix-socket and TCP transports: only
   how the listening socket is created, what to do to a freshly accepted
   fd ([on_accept], e.g. TCP_NODELAY) and what to clean up afterwards
   ([cleanup], e.g. unlinking the socket file) differ — the select loop,
   connection cap, frame shedding and the graceful drain are one code
   path, so every invariant proven for one transport holds for the
   other. *)
let serve_listener ~max_buffer_bytes ~max_connections ~on_accept ~cleanup server listener =
  (* A peer hanging up mid-write must surface as EPIPE, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let connections : (Unix.file_descr, connection) Hashtbl.t = Hashtbl.create 8 in
  let close_connection conn =
    if not conn.closed then begin
      conn.closed <- true;
      Hashtbl.remove connections conn.fd;
      try Unix.close conn.fd with Unix.Unix_error _ -> ()
    end
  in
  let send conn responses =
    if not conn.closed then
      try write_responses conn.fd responses
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        close_connection conn
  in
  let chunk = Bytes.create 65536 in
  let stop = ref false in
  let handle conn lines =
    match lines with
    | [] -> ()
    | lines ->
        let responses, verdict = Server.handle_batch server lines in
        send conn responses;
        (match verdict with `Shutdown -> stop := true | `Continue -> ())
  in
  let service conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        (* Peer EOF: an unterminated final line is still a request; its
           responses go out before the close (the peer may have only
           shut down its write side). *)
        handle conn (final_lines conn.stream);
        close_connection conn
    | n ->
        let lines, shed = ingest server conn.stream ~limit:max_buffer_bytes chunk n in
        handle conn lines;
        Option.iter (fun error -> send conn [ error ]) shed
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_connection conn
  in
  let accept () =
    match Unix.accept listener with
    | exception Unix.Unix_error _ -> ()
    | client, _ ->
    if Hashtbl.length connections >= max_connections then begin
      (* Connection cap: shed the newcomer with a typed error instead of
         tracking state for it; established connections are unaffected. *)
      count server "estima_connections_refused_total";
      count server "estima_errors_total";
      (try
         write_responses client
           [
             Protocol.error_response ~id:Json.Null ~v:1
               (Diag.make ~stage:Diag.Serve ~subject:"connection"
                  (Diag.Overloaded
                     { pending = Hashtbl.length connections; capacity = max_connections }));
           ]
       with Unix.Unix_error _ -> ());
      try Unix.close client with Unix.Unix_error _ -> ()
    end
    else begin
      (try on_accept client with Unix.Unix_error _ -> ());
      Hashtbl.replace connections client
        { fd = client; stream = new_stream (); closed = false }
    end
  in
  while not !stop do
    let fds = listener :: Hashtbl.fold (fun fd _ acc -> fd :: acc) connections [] in
    match Unix.select fds [] [] (-1.0) with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listener then accept ()
            else
              match Hashtbl.find_opt connections fd with
              | Some conn -> service conn
              | None -> ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Graceful drain: a shutdown stops the accept loop, but every other
     connection whose requests have already arrived still gets its
     answers.  One final non-blocking sweep pulls in bytes the kernel is
     already holding, then each connection's parsed lines are served
     before its close.  (Unterminated tails are not flushed here — these
     peers are not at EOF, their line simply never ended.) *)
  (* The drained fds stay non-blocking for the response writes too, so a
     stalled reader (full receive buffer) surfaces as EAGAIN rather than
     blocking shutdown forever: retry via select-for-writable under a
     deadline, then give the peer up. *)
  let drain_send conn responses =
    if responses <> [] && not conn.closed then begin
      let payload = String.concat "\n" responses ^ "\n" in
      let len = String.length payload in
      let deadline = Estima_obs.Clock.now_s () +. 5.0 in
      let rec go off =
        if off < len && not conn.closed then
          match Unix.write_substring conn.fd payload off (len - off) with
          | n -> go (off + n)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              let remaining = deadline -. Estima_obs.Clock.now_s () in
              if remaining <= 0.0 then close_connection conn
              else begin
                (match Unix.select [] [ conn.fd ] [] remaining with
                | _ -> ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
                go off
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
              close_connection conn
      in
      go 0
    end
  in
  let remaining = Hashtbl.fold (fun _ conn acc -> conn :: acc) connections [] in
  List.iter
    (fun conn ->
      (* One misbehaving peer must not abort the drain of the rest: any
         Unix error escaping this connection's sweep only costs this
         connection its responses. *)
      (try
         let lines = ref [] and errors = ref [] in
         Unix.set_nonblock conn.fd;
         (try
            let continue = ref true in
            while !continue do
              match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                  continue := false;
                  (* This peer did reach EOF before the drain: flush an
                     unterminated final line like the live path would. *)
                  lines := !lines @ final_lines conn.stream
              | n ->
                  let batch, shed =
                    ingest server conn.stream ~limit:max_buffer_bytes chunk n
                  in
                  lines := !lines @ batch;
                  Option.iter (fun error -> errors := !errors @ [ error ]) shed
            done
          with
         | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
         | Unix.Unix_error _ -> ());
         (match !lines with
         | [] -> ()
         | lines ->
             let responses, _ = Server.handle_batch server lines in
             drain_send conn responses);
         drain_send conn !errors
       with Unix.Unix_error _ -> ());
      close_connection conn)
    remaining;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  cleanup ()

let serve_socket ?(max_buffer_bytes = default_max_buffer_bytes)
    ?(max_connections = default_max_connections) server ~path =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 16;
  serve_listener ~max_buffer_bytes ~max_connections
    ~on_accept:(fun _ -> ())
    ~cleanup:(fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
    server listener

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
      | _ | (exception Not_found) ->
          invalid_arg (Printf.sprintf "Wire.serve_tcp: cannot resolve host %S" host))

let serve_tcp ?(max_buffer_bytes = default_max_buffer_bytes)
    ?(max_connections = default_max_connections) ?(on_listen = fun _ _ -> ()) server ~host ~port =
  let addr = resolve_host host in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt listener Unix.SO_REUSEADDR true with Unix.Unix_error _ -> ());
  (try Unix.bind listener (Unix.ADDR_INET (addr, port))
   with exn ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise exn);
  Unix.listen listener 16;
  (* With port 0 the kernel picked one: report the bound address so the
     operator (or a test harness) can connect. *)
  (match Unix.getsockname listener with
  | Unix.ADDR_INET (bound, bound_port) -> on_listen (Unix.string_of_inet_addr bound) bound_port
  | _ -> ());
  serve_listener ~max_buffer_bytes ~max_connections
    ~on_accept:(fun client ->
      (* Latency work over localhost must not pay delayed-ack/Nagle
         stalls: responses are one line, flush them immediately. *)
      Unix.setsockopt client Unix.TCP_NODELAY true)
    ~cleanup:(fun () -> ())
    server listener
