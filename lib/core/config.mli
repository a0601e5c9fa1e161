(** The one knob record of the public API.

    Before this module, tuning a prediction meant threading loose optional
    arguments through several modules: [?config:Approximation.config]
    (checkpoint count, kernel set), [?config:Predictor.config] (software
    stalls, frequency and dataset scaling) and the CLI-only [--trace]
    flag.  [Config.t] gathers the ones a program sets:
    {!Estima.Api} accepts it directly, and both [estima_cli] and
    [estima_serve] build it through {!make} — one construction site, so
    the two binaries cannot drift apart on defaults.

    The fan-out width is not a field: it is the process-wide knob of
    {!Estima_par.Fanout}, which never changes the numbers.  [estima_cli]
    pins it once from [--jobs] ({!Args.apply_jobs}); [estima_serve]
    resolves its [--jobs] to a count ({!Args.require_jobs}), which
    [Server.create] pins on the same knob. *)

open Estima_kernels

(** Rendering of the fit-selection audit trace, when one is requested. *)
type trace_format = Text | Json

type t = {
  checkpoints : int;  (** Held-out highest-core measurements (paper: 2 or 4). *)
  kernels : Kernel.t list;  (** Candidate kernel set (default: full Table 1). *)
  include_software : bool;  (** Use software stall plugins (off, as in the paper). *)
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
(** Paper defaults: 4 checkpoints, the full Table 1 kernel set, hardware
    counters only, same-machine strong scaling, no trace. *)

val make :
  ?checkpoints:int ->
  ?include_software:bool ->
  ?dataset_factor:float ->
  ?measured_on:Estima_machine.Topology.t ->
  ?target:Estima_machine.Topology.t ->
  ?trace:trace_format ->
  unit ->
  t
(** The single construction site used by [estima_cli] and [estima_serve].
    Every argument defaults to {!default}'s value.  When both
    [measured_on] and [target] are given, the frequency scale is derived
    with {!Estima_machine.Frequency.time_scale} — the cross-machine
    workflow both binaries share; otherwise it is 1.0.  The kernel set is
    {!default}'s: a program that needs another sets [kernels] by record
    update. *)

val approximation : t -> Approximation.config
(** The regression-stage slice of the record: prefixes from 3
    ({!Approximation.default_config}'s [min_prefix]). *)

val predictor : t -> Predictor.config
(** The full pipeline slice of the record, without the frontend
    category ({!Predictor.default_config}'s [include_frontend]). *)

val validate : t -> (unit, Diag.t) result
(** Structural sanity: positive scales and [checkpoints > 0].  The
    pipeline re-checks what it consumes; this exists so services can
    reject a bad configuration at admission time with a typed
    {!Diag.t}. *)

(** The shared command-line vocabulary of [estima_cli], [estima_serve]
    and [estima_load], so their spellings, defaults, documentation and
    error messages cannot drift. *)
module Args : sig
  val machine :
    default:Estima_machine.Topology.t -> string list -> string ->
    Estima_machine.Topology.t Cmdliner.Term.t
  (** [machine ~default names doc]: an option spelled [names] taking a
      {!Estima_machine.Machines} name. *)

  val sockets : int option Cmdliner.Term.t
  (** [--sockets N]; each binary checks [N] against its machine. *)

  val tcp : string -> (string * int) option Cmdliner.Term.t
  (** [tcp doc]: [--tcp HOST:PORT] with PORT decimal in 0..65535, 0
      being a listener's request for a kernel-assigned port; a client
      refuses it itself. *)

  val jobs : int option Cmdliner.Term.t
  (** [--jobs N] / [-j N]; [None] leaves the binary's default in force. *)

  val apply_jobs : int option -> unit
  (** Pin {!Estima_par.Fanout.set_jobs} for [Some n] ([n >= 1], else a
      one-line error on stderr and [exit 1]); [None] keeps the
      [ESTIMA_JOBS] environment default. *)

  val require_jobs : default:int -> int option -> int
  (** Resolve the flag to a concrete count for consumers that need one
      ([estima_serve]'s [Server.config.jobs], which sizes the process's
      one pool): [default] when absent, the value when [>= 1], the same
      error and [exit 1] otherwise. *)

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
