(* Line framing over a byte stream: each read is scanned once for
   newlines, and every line it completes is cut straight from it; the
   stream keeps only the partial frame after the last newline.  [\r\n]
   is accepted as [\n] so hand-typed sessions work from any terminal. *)

module Metrics = Estima_obs.Metrics
module Diag = Estima.Diag

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let rec byte_newline chunk i n =
  if i < n && Bytes.unsafe_get chunk i <> '\n' then byte_newline chunk (i + 1) n else i

(* The offset of the first newline in [chunk] from [i] on, or [n].
   Eight bytes at a time: [x = w lxor 0x0A..0A] is zero in the lanes of
   [w] that hold a newline, and [x] has a zero byte exactly when
   [(x - 0x01..01) land (lnot x)] has a high bit set.  The word that
   holds a hit, and the tail, go byte by byte. *)
let rec newline chunk i n =
  if i + 8 > n then byte_newline chunk i n
  else
    let x = Int64.logxor (get64u chunk i) 0x0A0A0A0A0A0A0A0AL in
    if Int64.logand (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x)) 0x8080808080808080L
       <> 0L
    then byte_newline chunk i n
    else newline chunk (i + 8) n

let default_max_buffer_bytes = 1 lsl 20

(* Per-stream framing state: [partial] holds the bytes after the last
   newline.  [discarding] is set after an oversized frame was shed: its
   bytes are dropped (bounded memory) until the next newline
   resynchronises the stream. *)
type stream = { partial : Buffer.t; mutable discarding : bool }

let new_stream () = { partial = Buffer.create 4096; discarding = false }

(* The line that ends at [stop], less a trailing [\r]: the partial frame
   completed by [chunk] from [start], or, with nothing buffered, a copy
   straight from [chunk]. *)
let cut stream chunk start stop =
  if Buffer.length stream.partial = 0 then
    let stop = if stop > start && Bytes.get chunk (stop - 1) = '\r' then stop - 1 else stop in
    Bytes.sub_string chunk start (stop - start)
  else begin
    Buffer.add_subbytes stream.partial chunk start (stop - start);
    let len = Buffer.length stream.partial in
    let len = if Buffer.nth stream.partial (len - 1) = '\r' then len - 1 else len in
    let line = Buffer.sub stream.partial 0 len in
    Buffer.clear stream.partial;
    line
  end

let frames stream ~limit chunk n =
  if n = 0 then begin
    (* EOF: a final line the peer never terminated is still a request;
       the tail of a frame already shed as oversized stays dropped. *)
    ((if Buffer.length stream.partial = 0 then [] else [ cut stream chunk 0 0 ]), None)
  end
  else begin
    let rec split acc start =
      let stop = newline chunk start n in
      if stop = n then begin
        Buffer.add_subbytes stream.partial chunk start (n - start);
        List.rev acc
      end
      else split (cut stream chunk start stop :: acc) (stop + 1)
    in
    let start =
      if not stream.discarding then 0
      else
        let stop = newline chunk 0 n in
        if stop < n then stream.discarding <- false;
        min n (stop + 1)
    in
    let lines = split [] start in
    if Buffer.length stream.partial <= limit then (lines, None)
    else begin
      let buffered = Buffer.length stream.partial in
      Buffer.reset stream.partial;
      stream.discarding <- true;
      (lines, Some buffered)
    end
  end

let count server name =
  Metrics.Counter.incr (Metrics.counter (Server.metrics server) name)

let frame_too_large server ~buffered ~limit =
  count server "estima_frame_too_large_total";
  count server "estima_errors_total";
  Protocol.error_response ~id:Json.Null ~v:1
    (Diag.make ~stage:Diag.Serve ~subject:"connection"
       (Diag.Frame_too_large { buffered; limit }))

(* Answer what one read of [n] bytes completes ([n = 0] is the peer's
   EOF, which also flushes an unterminated final line): the responses to
   the complete lines, then the shed error if the read overflowed the
   cap, built and counted in that order — the order the bytes arrived
   in, so positional clients see wire order and a scrape counts only
   what came before it. *)
let answer server stream ~limit chunk n =
  let lines, shed = frames stream ~limit chunk n in
  let responses, verdict =
    match lines with [] -> ([], `Continue) | lines -> Server.handle_batch server lines
  in
  let shed = Option.map (fun buffered -> frame_too_large server ~buffered ~limit) shed in
  (responses @ Option.to_list shed, verdict)

(* The bytes to write: what is left of [rest] from [sent] on, then one
   line per response, in one allocation. *)
let payload ?(rest = "") ?(sent = 0) responses =
  let kept = String.length rest - sent in
  let out = Bytes.create (List.fold_left (fun n r -> n + String.length r + 1) kept responses) in
  Bytes.blit_string rest sent out 0 kept;
  let _ : int =
    List.fold_left
      (fun off r ->
        let n = String.length r in
        Bytes.blit_string r 0 out off n;
        Bytes.set out (off + n) '\n';
        off + n + 1)
      kept responses
  in
  Bytes.unsafe_to_string out

(* A blocking write: stdio's, whose one peer can only stall itself, and
   the listener's one-line refusal into a fresh socket's empty buffer. *)
let write_responses fd = function
  | [] -> ()
  | responses ->
      let s = payload responses in
      let len = String.length s in
      let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
      go 0

let serve_stdio ?(max_buffer_bytes = default_max_buffer_bytes) server =
  let stream = new_stream () in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    match Unix.read Unix.stdin chunk 0 (Bytes.length chunk) with
    | n ->
        let responses, verdict = answer server stream ~limit:max_buffer_bytes chunk n in
        write_responses Unix.stdout responses;
        if n > 0 && verdict = `Continue then loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* A listener connection.  [pending] from offset [sent] on is its output
   queue, the bytes its peer has not taken yet.  After the peer's EOF
   ([eof]) it only writes, and closes once the queue is empty.  [closed]
   keeps every path off the fd once it is gone — an fd-table lookup is
   not enough, since the kernel may reuse the number for a newly accepted
   client. *)
type connection = {
  fd : Unix.file_descr;
  stream : stream;
  mutable pending : string;
  mutable sent : int;
  mutable eof : bool;
  mutable closed : bool;
}

let queued conn = String.length conn.pending - conn.sent

(* Read pause: a connection whose queue has passed the cap is not read
   until its peer takes its responses, so its output stays bounded by the
   cap plus the responses to one read; one at EOF has nothing to read. *)
let reading ~max_buffer_bytes conn = (not conn.eof) && queued conn <= max_buffer_bytes

let default_max_connections = 64

(* The listener loop shared by the Unix-socket and TCP transports: only
   how the listening socket is created, what to do to a freshly accepted
   fd ([on_accept], e.g. TCP_NODELAY) and what to clean up afterwards
   ([cleanup], e.g. unlinking the socket file) differ — the select loop,
   connection cap, frame shedding, output queues and the graceful drain
   are one code path, so every invariant proven for one transport holds
   for the other. *)
let serve_listener ~max_buffer_bytes ~max_connections ~on_accept ~cleanup server listener =
  (* A peer hanging up mid-write must surface as EPIPE, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let connections : (Unix.file_descr, connection) Hashtbl.t = Hashtbl.create 8 in
  let fds_where p =
    Hashtbl.fold (fun fd conn acc -> if p conn then fd :: acc else acc) connections []
  in
  let close_connection conn =
    if not conn.closed then begin
      conn.closed <- true;
      Hashtbl.remove connections conn.fd;
      try Unix.close conn.fd with Unix.Unix_error _ -> ()
    end
  in
  (* The one way bytes reach a connection after accept: write as much of
     the queue as the kernel takes now, without blocking.  The rest waits
     until [select] reports the fd writable, so a peer that stops reading
     holds back only itself. *)
  let rec flush conn =
    if conn.closed then ()
    else if queued conn > 0 then
      match Unix.write_substring conn.fd conn.pending conn.sent (queued conn) with
      | n ->
          conn.sent <- conn.sent + n;
          flush conn
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush conn
      | exception Unix.Unix_error _ -> close_connection conn
    else if conn.eof then close_connection conn
  in
  let send conn responses =
    if responses <> [] then begin
      conn.pending <- payload ~rest:conn.pending ~sent:conn.sent responses;
      conn.sent <- 0
    end;
    flush conn
  in
  let chunk = Bytes.create 65536 in
  let stop = ref false in
  (* Read once and send the answers.  True while the peer may have more
     bytes waiting. *)
  let service conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | n ->
        let responses, verdict = answer server conn.stream ~limit:max_buffer_bytes chunk n in
        if verdict = `Shutdown then stop := true;
        if n = 0 then conn.eof <- true;
        send conn responses;
        n > 0 && not conn.closed
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> false
    | exception Unix.Unix_error _ ->
        close_connection conn;
        false
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
      Unix.set_nonblock client;
      (try on_accept client with Unix.Unix_error _ -> ());
      Hashtbl.replace connections client
        { fd = client; stream = new_stream (); pending = ""; sent = 0; eof = false; closed = false }
    end
  in
  (* One round of the loop: flush the queues that became writable, serve
     the [readers] that became readable. *)
  let select readers timeout =
    match Unix.select readers (fds_where (fun conn -> queued conn > 0)) [] timeout with
    | readable, writable, _ ->
        let find fd = Hashtbl.find_opt connections fd in
        List.iter (fun fd -> Option.iter flush (find fd)) writable;
        List.iter
          (fun fd ->
            if fd = listener then accept ()
            else Option.iter (fun conn -> ignore (service conn)) (find fd))
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  while not !stop do
    select (listener :: fds_where (reading ~max_buffer_bytes)) (-1.0)
  done;
  (* Graceful drain: a shutdown stops the accept loop, but every other
     connection whose requests have already arrived still gets its
     answers.  One sweep through [service] pulls in the bytes the kernel
     is already holding, under the same read pause (an unterminated tail
     is not flushed unless its peer is at EOF); then the loop runs on
     writers only, under one 5 s deadline after which a peer that is
     still not reading is given up. *)
  List.iter
    (fun fd ->
      let conn = Hashtbl.find connections fd in
      while reading ~max_buffer_bytes conn && service conn do () done)
    (fds_where (fun _ -> true));
  let deadline = Estima_obs.Clock.now_s () +. 5.0 in
  let rec drain () =
    let remaining = deadline -. Estima_obs.Clock.now_s () in
    if remaining > 0.0 && fds_where (fun conn -> queued conn > 0) <> [] then begin
      select [] remaining;
      drain ()
    end
  in
  drain ();
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) connections;
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
          invalid_arg (Printf.sprintf "Wire.resolve_host: cannot resolve host %S" host))

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
