(** What the reproduction experiments share beyond the evaluation
    protocol ({!Estima.Experiment}, which measures, sweeps and scores
    them): the standard machine setups, and predictions that print their
    fit-selection audit under [ESTIMA_TRACE]. *)

open Estima_machine
open Estima_workloads
open Estima

val opteron_1socket : Topology.t
val xeon20_1socket : Topology.t
val opteron_2sockets : Topology.t

val ok : ('a, Diag.t) result -> 'a
(** Unwrap a pipeline stage result.  The repro experiments run on
    known-good suite inputs, so a diagnostic is a harness bug: raises
    [Failure] with the rendered diagnostic. *)

val predict :
  ?software:bool ->
  ?checkpoints:int ->
  ?dataset_factor:float ->
  ?target_threads:int ->
  entry:Suite.entry ->
  measure_machine:Topology.t ->
  measure_max:int ->
  target_machine:Topology.t ->
  unit ->
  Predictor.t
(** {!Experiment.measure} at 1..[measure_max] on [measure_machine], then
    predict [target_machine] up to its core count (or [target_threads]
    when given, e.g. all SMT contexts of a socket) under
    {!Experiment.config}.  With [ESTIMA_TRACE] set (to anything but [""]
    or ["0"]) the prediction runs under a recorder and prints its
    fit-selection audit. *)

val baseline :
  entry:Suite.entry ->
  measure_machine:Topology.t ->
  measure_max:int ->
  target_machine:Topology.t ->
  unit ->
  Time_extrapolation.t
(** {!Experiment.baseline} of the same measurements, up to every core of
    [target_machine]. *)
