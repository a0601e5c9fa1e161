(** Fit-selection trace events: the observability spine of the pipeline.

    ESTIMA's predictions are decided by a cascade of gates — realism,
    growth cap, slope consistency, checkpoint-RMSE tie-breaks, the
    correlation band of the scaling factor — and a prediction that cannot
    explain which candidate survived which gate is impossible to audit.
    This module defines the event vocabulary and a domain-local sink
    through which every stage of the pipeline reports its decisions.

    All trace state (sink, sequence counter, span stack, clock) is
    domain-local: a freshly spawned domain starts with tracing disabled
    and an empty span stack.  The parallel fan-out ({!Estima_par.Fanout})
    therefore runs every task on the calling domain while a sink is
    installed, so a traced run at any jobs setting produces the
    byte-identical event stream of the sequential pipeline.

    Instrumentation is zero-cost when no sink is installed: every
    instrumentation site guards on {!enabled}, which is a single
    domain-local read, so benchmark numbers are unaffected by the mere
    presence of the tracing hooks. *)

(** Why a (kernel, prefix) candidate was rejected. *)
type gate =
  | Fit_failed  (** The kernel could not be fitted on the prefix at all. *)
  | Non_finite  (** Fitted, but its predictions were not finite (or negative where forbidden). *)
  | Realism  (** Pole or explosion inside [1, target]: {!Estima_kernels.Fit.realistic}. *)
  | Growth_cap  (** Extrapolated growth exceeds what the window's own tail justifies. *)
  | Slope  (** Leaves the measurement window against the measured trend. *)
  | Factor_range  (** Scaling factor strays too far from the measured factor range. *)
  | Tie_break  (** Survived every gate but lost the final score comparison. *)

val gate_to_string : gate -> string

type verdict = Accepted | Rejected of gate

(** Outcome of a single [Fit.fit] call. *)
type fit_status =
  | Fitted of { rmse : float; lm_converged : bool }
  | Not_applicable  (** Too few points for the kernel's arity. *)
  | No_guesses  (** The kernel produced no usable initial guesses. *)
  | Diverged  (** No finite fitted form came out of the optimiser. *)

type payload =
  | Fit_attempt of { kernel : string; points : int; status : fit_status }
      (** One [Fit.fit] invocation (emitted by the kernels library). *)
  | Candidate of {
      stage : string;
      subject : string;
      kernel : string;
      prefix : int;
      verdict : verdict;
      score : float;  (** Checkpoint RMSE (stall fits) or factor RMSE; [nan] if rejected before scoring. *)
      detail : string;
    }  (** One (kernel, prefix) candidate passing through the selection gates. *)
  | Decision of {
      stage : string;
      subject : string;
      incumbent : string;
      challenger : string;
      winner : string;
      rule : string;  (** e.g. ["correlation"] or ["rmse-tie-break"]. *)
      detail : string;
    }  (** A head-to-head comparison between the running best and a challenger. *)
  | Winner of {
      stage : string;
      subject : string;
      kernel : string;
      prefix : int;
      score : float;
      correlation : float;  (** [nan] when the stage has no correlation criterion. *)
    }  (** The candidate finally chosen for a subject. *)
  | Note of { stage : string; subject : string; text : string }
  | Diagnostic of { stage : string; subject : string; cause : string; detail : string }
      (** A stage of the prediction pipeline failed: [stage] is the
          pipeline stage label (collect / extrapolate / translate),
          [cause] the machine-readable cause label, [detail] the rendered
          human message.  Emitted by {!Estima.Diag} just before a stage
          returns [Error], so a [--trace] of a failed prediction shows
          {e why} it failed alongside the candidate decisions. *)

type event = {
  seq : int;  (** Monotonically increasing per-domain sequence number. *)
  at_ns : int64;  (** Clock reading when the event was emitted. *)
  span : string list;  (** Enclosing span path, outermost first. *)
  payload : payload;
}

(** Events and span timings are the sink's only two channels: per-run
    counters such as [fit.attempts] are derived from the events
    ({!Recorder.counters}), and service counters live in {!Metrics}. *)
type sink = {
  on_event : event -> unit;
  on_span : path:string list -> elapsed_ns:int64 -> unit;
      (** Called when a span closes, with its full path and duration. *)
}

(** Stage labels used by the pipeline (shared so renderers can group). *)

val stall_stage : string
(** ["stall-fit"]: per-category stall extrapolation ({!Estima.Approximation}). *)

val factor_stage : string
(** ["factor-fit"]: the stalls-to-time scaling factor ({!Estima.Scaling_factor}). *)

val factor_subject : string
(** ["scaling-factor"]: the single subject of the factor stage. *)

val enabled : unit -> bool
(** [true] iff a sink is installed in the current domain.  Instrumentation
    sites must guard on this before building payloads, so that disabled
    tracing costs one load and one branch. *)

val set_sink : sink option -> unit
(** Install (or remove) the current domain's sink. *)

val current_sink : unit -> sink option

val emit : payload -> unit
(** Forwards to the installed sink; a no-op without one. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a named span: events emitted by [f]
    carry the span path, and the sink's [on_span] receives the elapsed
    time when [f] returns (or raises).  Without a sink this is exactly
    [f ()]. *)

val span_path : unit -> string list
(** The current span path, outermost first. *)

val set_clock : (unit -> int64) -> unit
(** Replace the current domain's clock used for [at_ns] and span
    durations.  The default is {!Clock.now_ns}, monotonic wall time, so a
    span counts the time its domain waits as well as the time it
    computes.  Deterministic tests install a constant clock so that
    traces compare byte-for-byte across jobs settings. *)

val default_clock : unit -> int64
(** {!Clock.now_ns}, for restoring after [set_clock]. *)
