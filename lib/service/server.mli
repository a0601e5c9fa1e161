(** The prediction server: a transport-independent request dispatcher.

    {!handle_batch} takes the request lines a transport has read and
    answers them one at a time, in wire order: each request is counted,
    parsed, admitted, ingested and looked up in the cache, and a miss is
    computed and cached, before the next line is read.  Everything the
    service promises lives here, where tests can drive it in-process
    and deterministically:

    - {b bounded queue}: at most [queue_capacity] cache misses are
      admitted per batch (computed, or shed by their deadline); once
      that many have been, every later predict of the batch is shed
      with a typed {!Estima.Diag.Overloaded} before any work.  A
      duplicate of a miss earlier in the batch is a cache hit, so it
      takes no place;
    - {b deadlines}: a miss's deadline (its own ["timeout_ms"] or the
      server default) is checked just before its pipeline runs, against
      the time since its batch arrived, so it counts the misses computed
      ahead of it; past it, the request is shed with
      {!Estima.Diag.Deadline_exceeded} instead of computing an answer
      nobody is waiting for.  Cache hits are exempt;
    - {b result cache}: results are cached in an LRU keyed by the
      record of the spec name, a digest of the ingested series' exact
      values ({!Estima_counters.Csv_export.series_digest}: equal exactly
      when the series' canonical CSVs are equal, but computed without
      rendering them), the target core count and the confidence
      resample count, compared by value.  The pipeline knobs are not in
      the key: one server's [base] never varies.  So a hit returns
      byte-identical text to a fresh run, and the same series sent as
      differently formatted CSV text is one entry.  An entry is the
      answer's response members ({!Protocol.rendered}), rendered once
      when it is filled; every predict response, hit or miss, is the
      request's envelope spliced onto them;
    - {b ingest memo}: a second LRU, of [cache_capacity] entries, maps
      what an inline ["csv"] predict hands to ingest — its ["spec"], its
      ["file"] label and its CSV text, compared by value — to the
      ingested series and its digest, so a frame that repeats an
      earlier CSV byte for byte parses no CSV: a cache hit is then one
      JSON parse, two hash lookups and one splice, with no digest of the
      request's bytes.  An entry holds its request's CSV text, so the
      memo's memory is bounded by [cache_capacity] times the frame size
      (a frame holds at most the transport's [max_buffer_bytes], the
      [--max-buffer] cap, plus one read).  It is filled only
      after a successful ingest and consulted only for ["csv"] requests
      (a ["file"] can change on disk, and a ["workload"] already comes
      from the store); each predict whose series came from it counts
      once in [estima_ingest_memo_hits_total];
    - {b fan-out}: each miss runs on the dispatcher and fans its own
      fit search and bootstrap out on the process's one domain pool,
      which [jobs] sizes; several misses of one batch run one after
      another.  A miss's rendering enters the cache before the next
      line, so a duplicate later in the batch is an ordinary hit, while
      a duplicate of a failed or garbage-faulted miss is computed again
      and counted as a miss.  Responses are byte-identical for any
      [jobs];
    - {b metrics}: counters for requests, cache hits/misses, ingest
      memo hits, sheds and failures, plus a latency histogram whose
      every sample runs from the batch's arrival to the request's own
      answer, so it includes the misses ahead of it.  The [metrics]
      command renders them via {!Estima_obs.Metrics.render} where it
      stands, so a scrape counts exactly the requests ahead of it on the
      wire, however the transport split them into batches;
    - {b crash containment}: an exception escaping a request — from
      the pipeline or from the dispatcher itself — is caught by that
      request's one handler, with the backtrace of its raise site, and
      answered with a typed {!Estima.Diag.Internal_error} (cause
      ["internal"], exit code 5, message plus a truncated backtrace) on
      that request only: once its pipeline has started, under the
      request's id and version and its series' spec name, before that
      under a null id.  Each is counted in
      [estima_internal_errors_total], in step with
      [estima_errors_total].  Faulted results never enter the cache,
      and the server and its cache remain fully usable for the rest of
      the batch and for every batch after.

    The dispatcher owns the cache and the metrics registry; pool
    domains only run the fan-outs of one pipeline call.  [handle_batch]
    is therefore not re-entrant — one transport loop calls it
    sequentially. *)

type config = {
  machine : Estima_machine.Topology.t;  (** Machine the CSVs were measured on. *)
  target : Estima_machine.Topology.t option;
      (** Machine to extrapolate to; [None] = same as [machine].  Decides
          the default target core count. *)
  base : Estima.Config.t;  (** Pipeline knobs, shared by every request. *)
  jobs : int;
      (** Domains of the process's one pool, >= 1: {!create} pins
          {!Estima_par.Fanout.set_jobs} to it. *)
  queue_capacity : int;  (** Max cache misses admitted per batch, >= 1. *)
  cache_capacity : int;  (** LRU entries, >= 1. *)
  default_timeout_ms : int option;
      (** Deadline of a miss that names none, from its batch's arrival
          to the start of its pipeline; [None] = requests wait
          forever. *)
  store_dir : string option;
      (** Directory of the shared measurement store's disk tier
          ({!Estima_store.Store}); [None] leaves the [ESTIMA_STORE]
          default in force.  Affects ["workload"] predict requests: their
          simulated series are read from/persisted to the store, so
          repeated requests across server restarts skip the simulator. *)
}

val default_config : machine:Estima_machine.Topology.t -> config
(** [target = None], {!Estima.Config.default} knobs, [jobs = 1],
    [queue_capacity = 64], [cache_capacity = 128], no default timeout,
    no store directory override. *)

type t

val create : ?clock:(unit -> float) -> config -> t
(** Validates the configuration ([Invalid_argument] on nonsense) and
    pins the process-wide fan-out width to [jobs]
    ({!Estima_par.Fanout.set_jobs}; no domain is spawned until a fan-out
    needs one): the last server created sets it, and {!shutdown} leaves
    it.  [clock] (seconds; default the monotonic
    {!Estima_obs.Clock.now_s}, so a wall-clock step cannot shed requests
    or stretch deadlines) exists so tests can drive the deadline path
    deterministically. *)

val metrics : t -> Estima_obs.Metrics.t

val answer :
  base:Estima.Config.t ->
  series:Estima_counters.Series.t ->
  target_max:int ->
  confidence:int option ->
  (Protocol.answer, Estima.Diag.t) result
(** What a predict of [series] is answered with, before any cache,
    queue or fault: {!Estima.Api.predict}, or for [Some resamples] the
    bootstrap ({!Estima.Api.predict_with_confidence}, level 0.90 and
    seed 42). *)

val collect_workload :
  machine:Estima_machine.Topology.t -> string -> (Estima_counters.Series.t, Estima.Diag.t) result
(** The series of a ["workload"] predict: the named suite workload on
    all of [machine]'s cores, through {!Estima.Api.collect_checked}. *)

val handle_batch : t -> string list -> string list * [ `Continue | `Shutdown ]
(** Process one batch of request lines, one at a time in order;
    returns one response line per request, in order, and whether a
    [shutdown] request was seen (the whole batch is still processed
    first). *)

val shutdown : t -> unit
(** Stop the server: [handle_batch] afterwards raises.  Idempotent.  The
    fan-out's pool and jobs knob belong to the process and are left as
    they are. *)

(** {1 Fault injection — testing only}

    A hook the fault-injection harness ([test/test_faults.ml], and
    [estima_serve --inject-fault]) uses to make the predict pipeline
    misbehave on chosen workloads, so crash containment can be proven
    against real faults rather than hoped for.  Faults are keyed by the
    ingested series' spec name (the request's ["spec"] member, or its
    derived default).  Not for production use: a faulted server
    deliberately serves wrong bytes for the chosen keys. *)

type fault =
  | Fault_raise of string
      (** The pipeline raises [Failure msg] instead of returning — the
          poisoned-request scenario.  Answered with a typed [internal]
          error, exit code 5. *)
  | Fault_delay of float
      (** The pipeline stalls this many seconds before answering — the
          timeout/slow-worker scenario. *)
  | Fault_garbage
      (** The response text is replaced with garbage bytes (the result
          is {e not} cached) — the corrupted-result scenario. *)

val inject_fault : t -> spec:string -> fault -> unit
(** Arm [fault] for every predict request whose series is named [spec];
    replaces any fault already armed for that spec. *)

val clear_faults : t -> unit
(** Disarm every fault; subsequent requests are served normally (and
    correctly — garbage never reached the cache). *)
