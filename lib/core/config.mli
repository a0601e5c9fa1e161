(** The one knob record of the public API.

    Before this module, tuning a prediction meant threading loose optional
    arguments through several modules: [?config:Approximation.config]
    (checkpoint count, minimum prefix), [?config:Predictor.config]
    (software stalls, frontend, frequency and dataset scaling) and the
    CLI-only [--trace] flag.  [Config.t] gathers every one of them:
    {!Estima.Api} accepts it directly, and both [estima_cli] and
    [estima_serve] build it through {!make} — one construction site, so
    the two binaries cannot drift apart on defaults.

    The fan-out width is not a field: it is the process-wide knob of
    {!Estima_par.Fanout}, which each binary pins once from [--jobs]
    ({!Args.apply_jobs}) and which never changes the numbers. *)

open Estima_kernels

(** Rendering of the fit-selection audit trace, when one is requested. *)
type trace_format = Text | Json

type t = {
  checkpoints : int;  (** Held-out highest-core measurements (paper: 2 or 4). *)
  min_prefix : int;  (** Smallest measurement prefix fitted (paper: 3). *)
  kernels : Kernel.t list;  (** Candidate kernel set (default: full Table 1). *)
  include_software : bool;  (** Use software stall plugins (off, as in the paper). *)
  include_frontend : bool;  (** Section 5.2 frontend ablation; off by default. *)
  frequency_scale : float;
      (** Multiplier applied to measured times when the target machine has
          a different clock; 1.0 for same-machine predictions. *)
  dataset_factor : float;  (** Weak-scaling dataset growth (Section 4.5); 1.0 = strong. *)
  trace : trace_format option;
      (** [Some fmt] records a fit-selection audit trace during
          {!Api.predict_traced} and renders it in [fmt]; [None] (default)
          costs nothing.  Tracing never changes the predictions; a traced
          prediction runs on one domain whatever the jobs setting. *)
}

val default : t
(** Paper defaults: 4 checkpoints, prefixes from 3, the full Table 1
    kernel set, hardware counters only, same-machine strong scaling, no
    trace. *)

val make :
  ?checkpoints:int ->
  ?min_prefix:int ->
  ?kernels:Kernel.t list ->
  ?include_software:bool ->
  ?include_frontend:bool ->
  ?frequency_scale:float ->
  ?dataset_factor:float ->
  ?measured_on:Estima_machine.Topology.t ->
  ?target:Estima_machine.Topology.t ->
  ?trace:trace_format ->
  unit ->
  t
(** The single construction site used by [estima_cli] and [estima_serve].
    Every argument defaults to {!default}'s value.  When both
    [measured_on] and [target] are given and [frequency_scale] is not,
    the scale is derived with {!Estima_machine.Frequency.time_scale} —
    the cross-machine workflow both binaries share. *)

val approximation : t -> Approximation.config
(** The regression-stage slice of the record. *)

val predictor : t -> Predictor.config
(** The full pipeline slice of the record. *)

val validate : t -> (unit, Diag.t) result
(** Structural sanity: positive scales, [checkpoints > 0] and
    [min_prefix >= 2].  The pipeline re-checks what it consumes; this
    exists so services can reject a bad configuration at admission time
    with a typed {!Diag.t}. *)

(** The shared command-line vocabulary of the two binaries.

    [estima_cli] and [estima_serve] take their [--jobs]/[--store]/
    [--trace]/[--window] terms from here, so the spellings, defaults,
    documentation and error messages cannot drift. *)
module Args : sig
  val jobs : int option Cmdliner.Term.t
  (** [--jobs N] / [-j N]; [None] leaves the binary's default in force. *)

  val apply_jobs : int option -> unit
  (** Pin {!Estima_par.Fanout.set_jobs} for [Some n] ([n >= 1], else a
      one-line error on stderr and [exit 1]); [None] keeps the
      [ESTIMA_JOBS] environment default. *)

  val require_jobs : default:int -> int option -> int
  (** Resolve the flag to a concrete count for consumers that need one
      (the serve worker pool): [default] when absent, the value when
      [>= 1], the same error and [exit 1] otherwise. *)

  val store : string option Cmdliner.Term.t
  (** [--store DIR]; also settable via [ESTIMA_STORE]. *)

  val apply_store : string option -> unit
  (** Point the default {!Estima_store.Store} at [Some dir]; [None]
      keeps the environment default. *)

  val trace : trace_format option Cmdliner.Term.t
  (** [--trace[=text|json]]; bare [--trace] means text. *)

  val window : int option Cmdliner.Term.t
  (** [--window CORES] / [-w CORES]. *)

  val confidence : int option Cmdliner.Term.t
  (** [--confidence[=RESAMPLES]]; bare [--confidence] means 100. *)
end

val fingerprint : t -> string
(** Canonical one-line rendering of every field that can change the
    numbers — deliberately excluding [trace], which is guaranteed
    observationally neutral.  The service's result cache keys on this, so
    a cache hit can never return numbers a different config would have
    produced, while trace settings share entries. *)
