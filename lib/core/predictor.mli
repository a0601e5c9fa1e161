(** The end-to-end ESTIMA predictor (paper Figure 3).

    (A) take a measurement {!Estima_counters.Series.t} from the
    measurements machine, (B) extrapolate every stall category and combine
    into stalls per core, (C) fit the scaling factor and emit execution
    times for every core count of the target machine. *)

open Estima_counters

type config = {
  approximation : Approximation.config;
  include_software : bool;
      (** Use software stall plugins in addition to hardware counters
          (off by default, as in the paper). *)
  include_frontend : bool;  (** Section 5.2 ablation; off by default. *)
  frequency_scale : float;
      (** Multiplier applied to measured times when the target machine has
          a different clock ({!Estima_machine.Frequency.time_scale}); 1.0
          for same-machine predictions. *)
  dataset_factor : float;
      (** Weak-scaling dataset growth (Section 4.5): extrapolated stall
          values and predicted times are scaled by this factor; 1.0 for
          strong scaling. *)
}

val default_config : config

type t = {
  config : config;
  series : Series.t;  (** The measurements the prediction was built from. *)
  target_grid : float array;  (** 1..target core counts. *)
  predicted_times : float array;  (** Seconds, aligned with [target_grid]. *)
  stalls_per_core : float array;
  extrapolation : Extrapolation.t;  (** Per-category fits (Fig 5a-f). *)
  factor : Scaling_factor.t;  (** The Fig 5(h) function. *)
}

val predict :
  ?config:config -> series:Series.t -> target_max:int -> unit -> (t, Diag.t) result
(** Runs the staged pipeline on a collected series.  Never raises:
    [Error] with {!Diag.Target_below_window} when [target_max] is below
    the measurement window, {!Diag.No_realistic_fit} (subject = the stall
    category) when a category admits no realistic fit,
    {!Diag.Bad_config} on non-positive scale factors, {!Diag.Bad_value}
    (stage [Collect], naming the column and core count) when a measured
    value (time, cycles, a stall category) is not finite or exceeds 1e150
    in magnitude, above which squares and their sums can overflow and
    print [nan].  When a trace sink is installed, the pipeline runs in a
    [predict] span and each diagnostic is also emitted as a
    {!Estima_obs.Trace.Diagnostic} event before the stage returns. *)

val measured_window : t -> int
(** Highest core count used for measurements (the vertical line in the
    paper's figures). *)

val factor_kernel : t -> string

val category_kernels : t -> (string * string) list
(** [(category, kernel name)] for each fitted stall category. *)

val pp_summary : Format.formatter -> t -> unit
