(** Transports for the prediction server.

    Both speak the newline-delimited JSON of {!Protocol}: every complete
    line that has arrived when the loop wakes up is handed to
    {!Server.handle_batch} as one batch — a pipelining client thus gets
    request batching (and within-batch cache dedup) for free, while an
    interactive client sees one-request batches.

    Both are bounded against adversarial peers:

    - the per-stream input buffer is capped at [max_buffer_bytes]
      (default 1 MiB).  A peer that streams that much without a newline
      is shed: one typed {!Estima.Diag.Frame_too_large} error line is
      written (and [estima_frame_too_large_total] bumped) after the
      responses to complete lines from the same read — those requests
      arrived first, so positional clients see wire order preserved —
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

val split_lines : Buffer.t -> string list
(** Peel every complete line off the buffer, leaving the unterminated
    tail in place: lines are separated by ['\n'], a trailing ['\r'] on a
    line is stripped ([\r\n] framing), empty lines are preserved.
    Returns [[]] (buffer untouched) when no newline has arrived yet. *)

val default_max_buffer_bytes : int
(** 1 MiB. *)

val default_max_connections : int
(** 64. *)

val resolve_host : string -> Unix.inet_addr
(** A dotted quad as is, otherwise the first address [gethostbyname]
    gives.  Raises [Invalid_argument] when [host] does not resolve. *)
