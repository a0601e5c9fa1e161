(** The service wire protocol: newline-delimited JSON, one request and
    one response per line.

    Requests are objects with an ["op"] member, an optional ["id"] (any
    JSON value, echoed verbatim in the response so clients can pipeline)
    and an optional protocol version ["v"]:

    {v
{"id":1,"op":"predict","file":"examples/data/kmeans_opteron.csv"}
{"id":2,"v":2,"op":"predict","csv":"threads,time_s,...\n1,...","confidence":100}
{"id":3,"op":"metrics"}
{"id":4,"op":"shutdown"}
    v}

    {b Version negotiation.}  A missing ["v"] means version 1: the
    pre-versioning wire format, and every v1 response is byte-identical
    to what the unversioned protocol produced — positional clients are
    unaffected by anything v2 added.  ["v":2] unlocks the v2 members
    (currently ["confidence"]) and makes every response echo ["v"]:2
    after the id.  A version outside [1..]{!version} is answered with a
    typed {!Estima.Diag.Bad_config} (exit code 2), not a parse error:
    the line was well-formed, the dialect is just unknown — clients can
    detect the condition and downgrade.

    [predict] takes the measurements either as a server-side CSV path
    (["file"]), inline (["csv"]), or as a simulated suite workload
    collected on the server's measurements machine (["workload"], e.g.
    ["kmeans"] — resolved through the shared measurement store, so with
    [--store DIR] repeated requests read the persisted series instead of
    re-simulating), plus optional ["spec"] (workload name, defaults to
    the file basename), ["target_max"] (defaults to the server's target
    machine core count; from the measured window's largest core count
    up to 1024, {!Estima.Api.predict}'s limit), ["timeout_ms"]
    (overrides the server's default deadline for this request, counted
    from its batch's arrival) and — v2 only — ["confidence"] (bootstrap
    resample count, 1..1000 as {!Estima.Api.validate_resamples}
    checks: attach p5/p50/p95 confidence bands and a risk-aware verdict
    to the response).  A value outside either range is a typed
    {!Estima.Diag.Bad_config}, exit code 2, answered before any fit.

    Successful predict responses carry exactly the text [estima_cli
    predict] prints, split into its parts:

    {v
{"id":1,"ok":true,"summary":"...","header":"cores  ...","rows":["    1  ...",...],"verdict":"the application scales"}
    v}

    With ["confidence"] requested, the response additionally carries a
    ["confidence"] object: the band quantiles as float lists ([p_lo],
    [p50], [p_hi], one entry per target core count), the stop-point
    interval ([stop_lo]/[stop_hi], null when every resample scales), the
    ensemble bookkeeping ([level], [resamples], [succeeded], [seed],
    [scaling_fraction], [verdict] — "scales"/"stops"/"uncertain") and
    the rendered text parts ([header], [rows], [verdict_line]) that are
    byte-identical to [estima_cli predict --confidence] output.

    Failures of any kind are a typed {!Estima.Diag.t} on the wire:

    {v
{"id":1,"ok":false,"error":{"stage":"serve","subject":"request","cause":"overloaded","message":"...","exit_code":4}}
    v}

    Error causes a client can see, beyond the pipeline's own bad-input
    vocabulary: ["overloaded"] and ["deadline-exceeded"] (exit code 4,
    transient — retry later), ["frame-too-large"] (exit code 2, the
    transport shed an unterminated over-limit frame; its [id] is [null]
    because the line was never parsed), and ["internal"] (exit code 5, a
    pipeline bug — the message carries the exception and a truncated
    backtrace, the serving process survives and every other request in
    the batch is answered normally). *)

val version : int
(** The newest protocol version this build speaks (currently 2).
    Requests may carry any ["v"] from 1 to here. *)

type request =
  | Predict of {
      id : Json.t;
      v : int;  (** Negotiated protocol version (1 when ["v"] absent). *)
      file : string option;  (** Server-side CSV path. *)
      csv : string option;  (** Inline CSV document (wins over [file] for data). *)
      workload : string option;  (** Suite workload to collect (wins over neither: [csv]/[file] first). *)
      spec_name : string option;
      target_max : int option;
      timeout_ms : int option;
      confidence : int option;  (** Bootstrap resamples; v2 only. *)
    }
  | Metrics of { id : Json.t; v : int }
  | Shutdown of { id : Json.t; v : int }

val parse_request : string -> (request, Json.t * Estima.Diag.t) result
(** Parse one request line.  On failure the diagnostic has stage
    [Serve] and cause {!Estima.Diag.Parse_error} (malformed request) or
    {!Estima.Diag.Bad_config} (unsupported ["v"], or a v2-only member on
    a v1 request); the returned id is whatever ["id"] member could still
    be extracted ([Null] otherwise), so the error response can be
    correlated. *)

(** {1 Responses} — already rendered to one line, no trailing newline.

    Every builder takes the request's negotiated [~v]; responses echo
    ["v"] only from 2 on, keeping v1 bytes untouched.  Paths with no
    negotiated version (unparseable lines, transport-level sheds) pass
    [~v:1].  A response is its envelope — [{"id":…] and, from v2 on,
    [,"v":N] — spliced onto the members that follow it, which are
    rendered on their own: the bytes are those of one JSON object
    holding both.

    A [metrics] response is rendered where it stands among its batch's
    lines, so its dump counts exactly the requests ahead of it on the
    wire, the latency of their cache misses included, and none after
    it. *)

type confidence = {
  level : float;
  resamples : int;
  succeeded : int;
  seed : int;
  scaling_fraction : float;
  verdict : string;  (** ["scales"], ["stops"] or ["uncertain"]. *)
  stop_lo : int option;
  stop_hi : int option;
  p_lo : float list;
  p50 : float list;
  p_hi : float list;
  header : string;
  rows : string list;
  verdict_line : string;
}
(** The wire form of one {!Estima.Api.Confidence.t}. *)

type answer = {
  summary : string;
  rows : string list;
  verdict : string;
  confidence : confidence option;
}
(** A rendered prediction, without id or version: what the load
    generator memoises, and what the server renders once into the
    {!rendered} members it caches. *)

val answer : Estima.Predictor.t -> Estima.Api.Confidence.t option -> answer

val predict_response :
  id:Json.t ->
  v:int ->
  confidence:confidence option ->
  summary:string ->
  header:string ->
  rows:string list ->
  verdict:string ->
  string

val answer_response : id:Json.t -> v:int -> answer -> string
(** {!predict_response} under {!Estima.Api.rows_header}. *)

type rendered
(** An answer's response members — everything a predict response holds
    after its envelope, from ["ok":true] on — rendered as one object. *)

val render : answer -> rendered
(** Render the members once; the server caches the result. *)

val rendered_response : id:Json.t -> v:int -> rendered -> string
(** The envelope spliced onto [rendered]:
    [rendered_response ~id ~v (render a) = answer_response ~id ~v a]. *)

val metrics_response : id:Json.t -> v:int -> dump:string -> string

val shutdown_response : v:int -> id:Json.t -> string

val error_response : id:Json.t -> v:int -> Estima.Diag.t -> string
