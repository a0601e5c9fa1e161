(** Transports for the prediction server.

    Both speak the newline-delimited JSON of {!Protocol}: every complete
    line that one read completes is handed to {!Server.handle_batch} as
    one batch, which answers its lines one at a time, in order.  How a
    client's bytes split into reads changes no answer and no counter: a
    duplicate later in a batch is an ordinary cache hit, and a scrape
    counts exactly the requests ahead of it.  It only moves where a
    request's latency and deadline start: at its batch's arrival.

    Both are bounded against adversarial peers:

    - the per-stream input buffer is capped at [max_buffer_bytes]
      (default 1 MiB).  A peer that streams that much without a newline
      is shed: one typed {!Estima.Diag.Frame_too_large} error line is
      built (and [estima_frame_too_large_total] bumped) after the
      responses to complete lines from the same read — those requests
      arrived first, so positional clients see wire order preserved,
      and a scrape among them does not count the shed —
      the buffered bytes are dropped, and input is discarded until the
      next newline
      resynchronises the stream — memory use stays bounded by one read
      chunk, the connection stays up;
    - a final line the peer never terminated is still handed to the
      server when the stream reaches EOF, so piping a file without a
      trailing newline answers every request in it;
    - the socket listener additionally caps concurrent connections at
      [max_connections] (default 64): a newcomer past the cap is
      answered with one typed {!Estima.Diag.Overloaded} error line and
      closed ([estima_connections_refused_total]), leaving established
      connections untouched;
    - a peer that stops reading holds back only itself.  Each listener
      connection has an output queue, and every byte written to it
      after accept goes through one non-blocking write: a batch's
      responses are written at once as far as the kernel takes them,
      and the rest when [select] reports the connection writable.  A
      connection whose queue holds more than [max_buffer_bytes] is left
      out of the read set until its peer drains it, so its output stays
      bounded by the cap plus the responses to one read, and every
      other connection is served meanwhile.  A connection at EOF closes
      once its queue is empty.  {!serve_stdio} keeps a blocking write:
      its one peer can only stall itself.

    Both return normally after a [shutdown] request (its response is
    written first) or when the peer side closes; they do not call
    {!Server.shutdown} — the caller owns the server's lifetime. *)

val serve_stdio : ?max_buffer_bytes:int -> Server.t -> unit
(** Serve one session over stdin/stdout.  Returns on EOF or [shutdown]. *)

val serve_socket :
  ?max_buffer_bytes:int -> ?max_connections:int -> Server.t -> path:string -> unit
(** Listen on a Unix domain socket at [path] (an existing socket file
    there is replaced), serving any number of concurrent connections
    from one thread via [select].  Returns once a [shutdown] request has
    been answered — but drains first: accepting stops, every connection
    is read until the kernel holds nothing more for it (or its queue
    passes the cap) and its complete request lines are answered, and
    the output queues are written out as their peers take them.  One
    5 s deadline bounds that last step: a peer still not reading by then
    loses its remaining responses, so a stalled reader cannot hold the
    shutdown.  The socket file is removed on the way out. *)

val serve_tcp :
  ?max_buffer_bytes:int ->
  ?max_connections:int ->
  ?on_listen:(string -> int -> unit) ->
  Server.t ->
  host:string ->
  port:int ->
  unit
(** Listen on TCP [host:port] ([host] a dotted quad or resolvable name;
    [port = 0] lets the kernel pick a free port).  Identical semantics
    to {!serve_socket} — the select loop, per-connection buffer cap,
    connection cap, frame shedding, output queues and graceful shutdown
    drain are the same code path — plus [SO_REUSEADDR] on the listener
    and [TCP_NODELAY] on accepted connections (one-line responses must
    not wait out Nagle).  [on_listen] is called once with the actually bound
    address and port before the first accept, which is how an operator
    or test harness learns the port when [port = 0] was asked.
    Raises [Invalid_argument] when [host] does not resolve. *)

(** {1 Internals, exposed for tests and the load driver} *)

type stream
(** One byte stream's framing state: the partial frame after its last
    newline, and whether it is discarding the rest of a shed frame. *)

val new_stream : unit -> stream

val frames : stream -> limit:int -> Bytes.t -> int -> string list * int option
(** [frames stream ~limit chunk n] feeds the [n] bytes just read into
    [chunk] and returns every line they complete, in order, plus
    [Some buffered] when the partial frame left after the last newline
    has grown past [limit] bytes: it is dropped ([buffered] is its
    length) and the stream discards input until the next newline.
    Lines are separated by ['\n'], a trailing ['\r'] on a line is
    stripped ([\r\n] framing), and empty lines are preserved.  The new
    bytes are scanned once, eight at a time, and a line that arrived
    whole in one read is one copy out of [chunk].  [n = 0] is the
    stream's end: the unterminated final line, if any, is returned. *)

val default_max_buffer_bytes : int
(** 1 MiB. *)

val default_max_connections : int
(** 64. *)

val resolve_host : string -> Unix.inet_addr
(** A dotted quad as is, otherwise the first address [gethostbyname]
    gives.  Raises [Invalid_argument] when [host] does not resolve. *)
