(** The evaluation protocol of every result in the paper: measure a
    window of a workload on the measurements machine, predict the target
    machine, score the prediction against a full ground-truth sweep of
    the target, and set it beside time extrapolation (Table 4, Fig. 7).

    [estima_cli compare], the repro experiments ({!Estima_repro.Lab}),
    the validation corpus and {!Estima_validate.Backtest} all evaluate
    through these functions.  Every series resolves through the shared
    measurement store ({!Api.collect}), so they read each other's
    entries, in memory and, with [--store DIR] / [ESTIMA_STORE], on
    disk. *)

open Estima_machine
open Estima_counters
open Estima_workloads

val repetitions : int
(** Averaged simulator runs per measured point (5). *)

val measure :
  ?seed:int ->
  ?repetitions:int ->
  entry:Suite.entry ->
  machine:Topology.t ->
  max_threads:int ->
  unit ->
  Series.t
(** Step A: collect [entry], with its software plugins, at
    1..[max_threads] on [machine] (seed 42 and {!repetitions} by
    default). *)

val sweep :
  ?seed:int ->
  ?repetitions:int ->
  ?max_threads:int ->
  entry:Suite.entry ->
  machine:Topology.t ->
  unit ->
  Series.t
(** The ground truth: {!measure} at 1..[max_threads] (default every core
    of [machine]) under a fixed offset from [seed] (default 42), an
    independent campaign that never reuses a measured run. *)

val config :
  ?software:bool ->
  ?checkpoints:int ->
  ?dataset_factor:float ->
  entry:Suite.entry ->
  measure_machine:Topology.t ->
  target_machine:Topology.t ->
  unit ->
  Config.t
(** The prediction knobs of the protocol: software plugins on exactly
    when the workload has them (unless [software] says otherwise), the
    frequency scale between the two machines, and {!Config.default}
    for everything else. *)

val score : ?from_threads:int -> prediction:Predictor.t -> truth:Series.t -> unit -> Diag.Quality.t
(** The prediction against the truth, over core counts >= [from_threads]
    (default 1; the window + 1 scores only the extrapolated region).
    Raises [Invalid_argument] when the truth does not cover the target
    grid. *)

val max_error_upto : Diag.Quality.t -> threads:int -> float
(** Maximum per-point error over core counts <= [threads]: Table 4's
    "2 CPUs / 3 CPUs / 4 CPUs" columns. *)

val baseline :
  config:Config.t -> series:Series.t -> target_max:int -> (Time_extrapolation.t, Diag.t) result
(** The Section 2.4 comparator under the same protocol: time
    extrapolation of [series] with [config]'s checkpoints and frequency
    scale. *)

val score_baseline : baseline:Time_extrapolation.t -> truth:Series.t -> Diag.Quality.t
(** {!score} for the comparator, over every core count. *)

type outcome = {
  measurements : Series.t;
  prediction : Predictor.t;
  truth : Series.t;  (** Full sweep of the target machine. *)
  error : Diag.Quality.t;
  time_baseline : Time_extrapolation.t;
  baseline_error : Diag.Quality.t;
}

val run :
  ?seed:int ->
  ?repetitions:int ->
  entry:Suite.entry ->
  measure_machine:Topology.t ->
  target_machine:Topology.t ->
  unit ->
  (outcome, Diag.t) result
(** The whole protocol, from every core of [measure_machine] to every
    core of [target_machine]: {!measure}, predict under {!config},
    {!sweep} the target, and score both the prediction and the
    {!baseline}.  Pipeline failures (no realistic
    fit, target below the window) come back as [Error]. *)
