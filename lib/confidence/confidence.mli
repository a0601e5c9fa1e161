(** Prediction uncertainty via residual bootstrap (deterministic).

    ESTIMA's point predictions come out of a fit-selection pipeline with a
    small measured window (typically 12 points per stall category), so a
    prediction at 48 cores can be exquisitely sensitive to measurement
    noise inside that window: a slightly different draw of the same runs
    can flip the chosen kernel and bend the extrapolated curve.  This
    module quantifies that sensitivity with a residual bootstrap:

    + compute residuals between the measured window and the pipeline's
      own fitted curves (per stall category, and for the translated
      time curve);
    + build [resamples] synthetic windows by adding sign-flipped,
      resampled residuals back onto the fitted values (a wild bootstrap,
      appropriate for the short, heteroscedastic windows at hand);
    + refit {e the entire pipeline} on each synthetic window — kernel
      selection included, which is where most of the spread comes from;
    + summarise the resulting ensemble of predicted curves as
      per-thread-count quantile bands, a stop-point interval and a
      risk-aware scaling verdict.

    Determinism contract: the fixed seed 42 drives one splitmix64 master
    generator; a child generator is {!Estima_numerics.Rng.split} off per
    resample {e on the submitting domain, in resample order}, and only
    then is the refit work fanned out on {!Estima_par.Fanout.map}.  Each
    task touches nothing but its own child generator, so the bands are
    byte-identical at any [--jobs] setting.

    The module is deliberately decoupled from [lib/core] (which depends
    on it): the pipeline is injected as the [predict] closure and the
    verdict rule as [classify].  [Estima.Api.predict_with_confidence]
    wires in the real predictor. *)

open Estima_counters

type curve = {
  category : string;  (** Stall category (event code or plugin name). *)
  fitted : float array;  (** Fitted values at the measured core counts. *)
  measured : float array;  (** Measured values, same order. *)
}
(** One fitted stall-category curve over the measured window: the
    residual source for the bootstrap. *)

type band = {
  lo : float;  (** Lower quantile, [(1 - level) / 2]. *)
  median : float;  (** The p50 of the resampled predictions. *)
  hi : float;  (** Upper quantile, [1 - (1 - level) / 2]. *)
}
(** Confidence band at one target core count, in predicted seconds. *)

type verdict =
  | Scales  (** At least [1 - (1-level)/2] of the resamples scale. *)
  | Stops_at of { lo : int; hi : int }
      (** At most [(1-level)/2] of the resamples scale; [lo..hi] is the
          [level] interval of the resampled stop points. *)
  | Uncertain
      (** The resample ensemble straddles the decision boundary: the
          scaling fraction is inside [((1-level)/2, 1 - (1-level)/2)]. *)

type t = {
  resamples : int;  (** Requested resample count. *)
  succeeded : int;
      (** Resamples whose refit produced a prediction.  A synthetic
          window can defeat every realistic fit; such resamples are
          skipped deterministically, never substituted. *)
  seed : int;  (** The master generator's seed, 42. *)
  level : float;  (** Band coverage target, {!level}. *)
  scaling_fraction : float;
      (** Fraction of succeeded resamples whose curve scales. *)
  bands : band array;  (** One per target core count, grid order. *)
  stop_interval : (int * int) option;
      (** [level] interval of stop points over the resamples that stop;
          [None] when every resample scales. *)
  verdict : verdict;
}

val level : float
(** The coverage of every estimate's bands: 0.90, so p5/p95. *)

val estimate :
  ?residual_scale:float ->
  resamples:int ->
  series:Series.t ->
  curves:curve list ->
  fitted_times:float array ->
  base_times:float array ->
  target_grid:float array ->
  predict:(Series.t -> float array option) ->
  classify:(float array -> [ `Scales | `Stops_at of int ]) ->
  unit ->
  t
(** [estimate ~resamples ~series ~curves ~fitted_times ~base_times
    ~target_grid ~predict ~classify ()] runs the bootstrap.

    [curves] are the per-category fitted/measured pairs over the measured
    window (in a fixed order — it is part of the deterministic draw
    order); [fitted_times] the pipeline's fitted times at the measured
    core counts, in measured (untranslated) seconds; [base_times] the
    point prediction on the target grid, used only as the degenerate band
    when every resample fails; [target_grid] the core count at each grid
    point.  [predict] refits one synthetic series and
    returns its predicted times on the same grid ([None] on a typed
    pipeline failure); [classify] maps a predicted curve to the scaling
    verdict.

    The bands are {e prediction} intervals: each resampled curve is
    additionally perturbed, per grid point, by a resampled relative time
    residual from the window plus a small uncertainty floor growing with
    extrapolation distance ([extrapolation_floor] per window multiple
    beyond the window).  Without that, a workload whose window fits
    near-perfectly would get zero-width bands that no held-out truth
    could ever land inside.  The verdict and stop interval come from the
    unperturbed refit ensemble.

    The bands are the {!level} quantiles, seeded by 42; [residual_scale]
    (default 1.0) multiplies every resampled residual — a calibration
    instrument: values well below 1 deliberately mis-calibrate the bands,
    which the validation gate must detect.

    Raises [Invalid_argument] on [resamples < 1]; the embedding API
    layer turns that into a typed diagnostic before calling. *)

val verdict_to_string : t -> string
(** ["scales (97% of resamples agree)"],
    ["stops between 20 and 28 cores (90% interval)"] or
    ["might not scale: only 60% of resamples scale"] — the phrase the
    renderers prefix with "the application ". *)
