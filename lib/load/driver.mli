(** Load drivers: play a {!Generator.plan} against a live [estima_serve]
    and verify every response byte-for-byte.

    One domain per client plays that client's request stream over its own
    connection.  Because the server answers each connection's requests in
    wire order, verification is a FIFO match: the next response line must
    equal the next pending request's precomputed [expected] bytes —
    string equality, no parsing, no tolerance.  Latencies (send of the
    frame to receipt of its response line) are recorded into one shared
    {!Estima_obs.Metrics} histogram, whose single-lock snapshot provides
    the p50/p90/p99 and the exact maximum for the report.

    Every client runs a closed loop with a window of one: it sends its
    next request only after the previous response arrived.  Latency
    thus measures the server's round trip under [clients] concurrent
    callers, and throughput is [clients / mean latency]. *)

type target =
  | Stdio of string array
      (** Spawn this argv per client and speak NDJSON over its
          stdin/stdout (e.g. [[| "estima_serve.exe" |]]). *)
  | Unix_socket of string  (** Connect to the Unix socket at this path. *)
  | Tcp of { host : string; port : int }

type mismatch = {
  client : int;
  id : int;  (** The request's wire id. *)
  kind : Generator.kind;
  expected : string;
  got : string;
}

type outcome = {
  sent : int;
  received : int;
  matched : int;
  mismatched : int;
  timed_out : int;
      (** Requests still pending when a client hit the per-request
          deadline or the server closed the connection early. *)
  mismatches : mismatch list;  (** The first few, for diagnosis. *)
  elapsed_s : float;  (** Wall time from first send to last response. *)
  latency : Estima_obs.Metrics.Histogram.snapshot;
}

val clean : outcome -> bool
(** Every request answered with exactly its expected bytes: [sent =
    received = matched], nothing mismatched or timed out. *)

val run : ?timeout_s:float -> target -> Generator.plan -> outcome
(** Play the plan: one domain per client stream, each over its own
    connection (its own spawned process for {!Stdio}).  [timeout_s]
    (default 120) bounds the wait for any single response; on expiry the
    client stops and its unanswered requests count as [timed_out].
    Raises [Unix.Unix_error] only for connection-establishment failures;
    mid-stream hangups are reported through the outcome. *)

(** {1 Spawning a TCP server under test} *)

type server = { pid : int; host : string; port : int }

val spawn_tcp_server :
  ?wait_s:float -> ?args:string list -> exe:string -> unit -> server
(** Start [exe --tcp 127.0.0.1:0 args] with stderr captured to a
    temporary file, and poll that file (up to [wait_s], default 10 s)
    for the ["estima_serve: listening on HOST:PORT"] line — the
    kernel-assigned port without a bind race.  Raises [Failure] if the
    line does not appear (the captured stderr is included). *)

val stop_server : ?grace_s:float -> server -> unit
(** Shut the server down: connect, send a [shutdown] request, and wait
    up to [grace_s] (default 5 s) for the process to exit — the graceful
    path, exercising the drain.  A server that ignores it is killed. *)

val locate_serve_exe : unit -> string option
(** Best-effort path to the [estima_serve] binary built alongside the
    calling executable: a sibling [estima_serve.exe] (or [estima_serve])
    of [Sys.executable_name], then the same names under a sibling
    [bin/] directory — which covers both a test binary in [_build] and
    the installed layout. *)
