(** Calibration check for the bootstrap confidence bands: on every
    corpus workload, predict with {!Estima.Api.predict_with_confidence}
    from the protocol window and score what fraction of the {e held-out}
    ground-truth points (core counts strictly above the window — the
    same region the accuracy gate scores) fall inside the [level] band.

    A well-calibrated 90% band should cover roughly 90% of held-out
    points; the gate demands at least 85% in aggregate, so bands that
    are systematically too narrow (overconfident) fail the run.  The
    [residual_scale] knob exists to prove that detection works:
    shrinking it collapses the bands without touching the point
    predictions, and the gate must then fail. *)

type workload = {
  name : string;
  held_out : int;  (** Held-out truth points scored. *)
  covered : int;  (** Of those, inside the band. *)
  coverage : float;  (** [covered / held_out]. *)
}

type t = {
  level : float;
  resamples : int;
  threshold : float;
  workloads : workload list;  (** Per-workload coverage, in input order. *)
  held_out : int;  (** Total held-out points across the corpus. *)
  covered : int;
  coverage : float;  (** Aggregate [covered / held_out]. *)
  passed : bool;  (** [coverage >= threshold]. *)
}

val default_resamples : int
(** 100 bootstrap resamples per workload. *)

val run :
  ?resamples:int ->
  ?residual_scale:float ->
  Backtest.source list ->
  (t, Estima.Diag.t) result
(** Score every source's 90% band (fanned out on {!Estima_par.Fanout},
    results in input order, deterministic at any jobs setting) against
    the 0.85 aggregate threshold.  Defaults: {!default_resamples},
    residual scale 1.0.  Errors are the underlying pipeline
    diagnostics. *)

val render_lines : t -> string
(** Human-readable block: one line per workload plus the aggregate
    verdict line. *)

val to_json : t -> Estima_json.Json.t
