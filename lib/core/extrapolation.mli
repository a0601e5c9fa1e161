(** Step B of the pipeline: extrapolate every stall category individually
    (paper Section 3.1.2) and combine them into stalled cycles per core.

    Using the fine-grain categories — never an aggregate counter — is the
    paper's central design decision (Section 2.5): individual categories
    show trends at low core counts that the aggregate hides. *)

open Estima_counters

type category_fit = {
  category : string;  (** Event code or software plugin name. *)
  choice : Approximation.choice;
  measured : float array;  (** The values the fit was selected from. *)
}

type t = {
  fits : category_fit list;
  threads : float array;  (** Measured core counts. *)
  target_grid : float array;  (** 1..target, the prediction grid. *)
}

val extrapolate :
  ?config:Approximation.config ->
  series:Series.t ->
  target_max:int ->
  include_software:bool ->
  include_frontend:bool ->
  unit ->
  (t, Diag.t) result
(** Fits every stall category of [series].  Categories whose measurements
    are identically zero are carried as exact zero fits.  The software
    categories excluded by [include_software:false] are the union across
    all samples, so a plugin that reports at only some thread counts is
    still excluded everywhere.

    Never raises on the pipeline path.  [Error] cases: an empty series
    ({!Diag.Short_series}), a target inside the measured window
    ({!Diag.Target_below_window}), a category absent from some sample
    ({!Diag.Missing_category}, subject = the category), and a non-zero
    category no realistic fit exists for ({!Diag.No_realistic_fit},
    subject = the category — "ESTIMA cannot extrapolate this series").
    All categories are fitted even when one fails, so a trace shows every
    diagnostic; the first failing category's diagnostic is returned.

    When a trace sink is installed ({!Estima_obs.Trace}), each category is
    fitted inside a [category:<name>] span and its candidate gate
    decisions are reported with the category as subject. *)

val stalls_per_core : t -> float array
(** The sum of all fitted categories at each core count [n] of the target
    grid, each clamped at zero, divided by [n] — the quantity Figure 5(g)
    plots. *)

val dominant_categories : t -> at:float -> (string * float) list
(** Categories ranked by their share of total stalls at core count [at];
    shares sum to 1.  The bottleneck-identification input (Section 4.6). *)
