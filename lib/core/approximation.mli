(** The regression-analysis step of ESTIMA (paper Section 3.1.2, Figure 4).

    Given the measured values of one stall category at increasing core
    counts, the [c] highest-core measurements are designated *checkpoints*.
    Candidate functions are fitted from every Table 1 kernel on every
    measurement prefix of length 3..(m-c) — the prefix sweep guards against
    over-fitting small deviations — unrealistic fits are discarded, and the
    candidate with the lowest RMSE *at the checkpoints* wins: a function
    may deviate at low core counts as long as it tracks where the series is
    heading. *)

open Estima_kernels

type config = {
  checkpoints : int;  (** c; the paper uses 2 and 4. *)
  min_prefix : int;  (** Smallest prefix fitted (paper: 3). *)
  kernels : Kernel.t list;
      (** The candidate kernel set swept by the prefix search (default:
          the full Table 1 set, {!Estima_kernels.Catalogue.all}).  An
          empty list makes every series fall through to the polynomial
          fallback chain. *)
}

val default_config : config
(** 4 checkpoints, prefixes from 3, the full Table 1 kernel set. *)

type choice = {
  fitted : Fit.fitted;
  prefix : int;  (** Number of leading measurements the winner was fitted on. *)
  checkpoint_rmse : float;
}

val approximate :
  ?config:config ->
  ?subject:string ->
  xs:float array ->
  ys:float array ->
  target_max:float ->
  require_nonnegative:bool ->
  unit ->
  (choice, Diag.t) result
(** Runs the Figure 4 procedure.  [target_max] bounds the realism check:
    a fit with a pole or blow-up inside [1, target_max] is discarded.

    [subject] names the series in trace events and diagnostics (the stall
    category name; defaults to ["series"]).  When a trace sink is
    installed ({!Estima_obs.Trace}), every (kernel, prefix) candidate is
    reported with the gate that rejected it — realism, growth cap, slope
    or tie-break — and the eventual winner with its checkpoint RMSE; with
    no sink the procedure is unchanged and pays only a flag check.

    With very short series (fewer than [min_prefix + checkpoints] points —
    e.g. the paper's memcached experiment measures only three thread
    counts) the checkpoint scheme cannot run; a low-degree polynomial
    fitted on all points is used instead, with its own fit RMSE as the
    score.

    Never raises on the pipeline path: empty or mismatched input and a
    non-positive config come back as [Error] ({!Diag.Short_series},
    {!Diag.Mismatched_lengths}, {!Diag.Bad_config}), and a series no
    candidate survives on as [Error] with {!Diag.No_realistic_fit}. *)

val candidates : config -> points:int -> (int * Kernel.t) array
(** The prefix sweep over [points] measurements: every prefix length from
    [min_prefix] to [points - checkpoints], each paired with every kernel
    of [kernels] in order; empty when the window is too short.  The
    scaling factor sweeps the same candidates. *)

val fit_prefix :
  Kernel.t -> xs:float array -> ys:float array -> prefix:int -> Fit.fitted option
(** Fit one kernel on the first [prefix] points; exposed for ablations. *)
