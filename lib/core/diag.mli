(** Structured diagnostics for the staged prediction pipeline.

    ESTIMA is a tool: it ingests measurement reports a user collected on
    their own machine, and bad input is an expected, recoverable event —
    not a reason to tear the process down with a bare [Failure].  Every
    stage of the pipeline ([collect -> extrapolate -> translate], the
    paper's Figure 3) therefore returns [('a, Diag.t) result]: a value on
    success, and on failure a diagnostic carrying {e which stage} failed,
    {e what subject} (stall category, workload, file) it was working on,
    and a {e typed cause} that callers can branch on — with a single
    human rendering used everywhere (CLI stderr, trace events).

    Since API version 2 the result-typed entry points are the only ones:
    the deprecated [_exn] wrappers of versions 0/1 are gone, so no
    pipeline path raises on bad input anymore. *)

(** The pipeline stage that failed (Figure 3's three steps), plus the
    serving layer wrapped around them. *)
type stage =
  | Collect  (** Measurement ingestion and validation (step A). *)
  | Extrapolate  (** Per-category stall regression (step B). *)
  | Translate  (** Stalls-per-core to execution time (step C). *)
  | Serve
      (** Request admission and scheduling in the prediction service
          ({!Estima_service.Server}): a request shed before the pipeline
          even starts — queue overflow, deadline already blown, an
          unparseable wire payload. *)

val stage_label : stage -> string
(** ["collect"], ["extrapolate"], ["translate"] or ["serve"]. *)

(** Why the stage failed.  Every constructor is exercised by tests. *)
type cause =
  | Parse_error of { file : string; line : int; msg : string }
      (** Malformed external input ([line] is 1-based; 0 when the error is
          not tied to a line, e.g. an unreadable file). *)
  | Short_series of { points : int; needed : int }
      (** Fewer measured points than the stage can work with. *)
  | Mismatched_lengths of { what : string; expected : int; got : int }
      (** Two inputs that must be aligned are not. *)
  | Missing_category of { category : string; threads : int }
      (** A stall category present in one sample is absent at [threads]. *)
  | Bad_config of { what : string }  (** An invalid configuration value. *)
  | Bad_value of { what : string; value : float }
      (** A measured quantity outside its valid domain (e.g. non-positive
          stalls per core). *)
  | Target_below_window of { target : int; window : int }
      (** The requested target core count is inside the measured window. *)
  | No_realistic_fit of { window : int }
      (** No candidate survived the realism/growth/slope gates; [window]
          is the highest measured core count. *)
  | Overloaded of { pending : int; capacity : int }
      (** The service's bounded request queue is full: [pending] requests
          were already admitted against a capacity of [capacity].  The
          request was shed without running the pipeline; retry later. *)
  | Deadline_exceeded of { waited_ms : int; timeout_ms : int }
      (** The request's deadline passed while it waited in the service
          queue: it had already waited [waited_ms] ms against a budget of
          [timeout_ms] ms when a worker picked it up, so running the
          pipeline could only produce an answer nobody is waiting for. *)
  | Frame_too_large of { buffered : int; limit : int }
      (** A transport accumulated [buffered] bytes without seeing a
          newline, past its per-connection frame limit of [limit] bytes.
          The buffered bytes were dropped (the stream resynchronises at
          the next newline) instead of growing without bound. *)
  | Internal_error of { exn : string; backtrace : string }
      (** The pipeline raised instead of returning: a bug, surfaced to
          the one request that triggered it.  [exn] is the printed
          exception and [backtrace] a flattened, truncated backtrace —
          enough to file a report, small enough for a one-line wire
          payload.  The serving process itself survives. *)

val cause_label : cause -> string
(** Stable machine-readable label, e.g. ["parse-error"],
    ["no-realistic-fit"] — what trace events and tests key on. *)

type t = { stage : stage; subject : string; cause : cause }

val make : stage:stage -> subject:string -> cause -> t

val render : t -> string
(** The one-line human rendering used on CLI stderr:
    ["estima: [<stage>] <subject>: <cause message>"]. *)

val error : stage:stage -> subject:string -> cause -> ('a, t) result
(** [Error (make ~stage ~subject cause)], additionally reported as a
    {!Estima_obs.Trace.Diagnostic} event when a trace sink is installed —
    so [--trace] output shows {e why} a stage failed, in place. *)

val exit_code : t -> int
(** CLI exit code: 3 for {!No_realistic_fit} (the input was well-formed
    but ESTIMA cannot extrapolate it), 4 for the transient service
    conditions ({!Overloaded}, {!Deadline_exceeded} — retrying may
    succeed), 5 for {!Internal_error} (a bug in the pipeline, not in the
    request), 2 for every bad-input cause. *)

val of_exn : subject:string -> exn -> Printexc.raw_backtrace -> t
(** Wrap an escaped exception as an {!Internal_error} diagnostic of
    stage [Serve], where the service catches it.  The backtrace is
    flattened to one line (frames joined by [" <- "]) and truncated to a
    few hundred bytes so the rendering stays a single sane wire line. *)

(** Prediction-quality metrics (the paper's Table 4 criteria): maximum
    relative error of predicted against measured execution times, and the
    *scalability verdict* — does the application keep scaling, and if not,
    at roughly which core count does it stop?

    This lived in [Estima.Error] before the staged pipeline; now that
    pipeline failures are typed {!t} values, the quality metrics are the
    only "error" notion left and live here, next to the diagnostics they
    complement: a {!t} says the pipeline could not answer, a {!Quality.t}
    says how good an answer was. *)
module Quality : sig
  type verdict = Scales | Stops_at of int
  (** [Stops_at k]: execution time reaches its minimum at [k] cores and
      does not improve (beyond a tolerance) afterwards. *)

  type t = {
    max_error : float;  (** Max relative error over the evaluated points. *)
    mean_error : float;
    per_point : (int * float) list;  (** (threads, relative error). *)
    predicted_verdict : verdict;
    measured_verdict : verdict;
    verdict_agrees : bool;
  }

  val evaluate :
    predicted:float array ->
    measured:float array ->
    target_grid:float array ->
    ?from_threads:int ->
    unit ->
    t
  (** Compares the two curves; [from_threads] (default 1) restricts the
      error statistics to core counts at or above it — the paper excludes
      nothing by default but weak-scaling results exclude single-core.
      Raises [Invalid_argument] on inconsistent lengths or measured
      zeros. *)

  val scaling_verdict : times:float array -> grid:float array -> verdict
  (** [Stops_at k] where [k] is the first core count that no higher count
      improves upon by more than 5%; [Scales] when that point lies within
      the top 15% of the grid. *)

  val verdict_to_string : verdict -> string

  val agreement : predicted:verdict -> measured:verdict -> bool
  (** Verdicts agree when both scale, or both stop within a third of the
      same core count — the paper's "no case predicts a different
      behaviour" criterion on an integer grid. *)
end
