(** One held-out backtest: the paper's evaluation protocol as a function.

    A {!source} bundles a full measurement series together with an
    independently collected ground-truth sweep of the target machine.
    {!run} truncates the measurements to the protocol window, pushes them
    through the complete collect→extrapolate→translate pipeline via
    {!Estima.Api.predict}, and scores the prediction against the
    held-out truth points — exactly what Table 4 does for every
    benchmark, but for arbitrary series from any origin (the simulator,
    a CSV file, a production trace). *)

open Estima_counters

type source = {
  name : string;  (** Workload name, used in reports and diagnostics. *)
  family : string;  (** Benchmark family label (free-form). *)
  measured : Series.t;
      (** The measurement sweep; only points at or below
          [protocol.window] are shown to the pipeline. *)
  truth : Series.t;
      (** Independent ground truth covering 1..[protocol.target_max]
          cores — the held-out curve predictions are scored against. *)
  config : Estima.Config.t;  (** Pipeline knobs for the prediction run. *)
  protocol : Report.protocol;
      (** Recorded in the report; [window] and [target_max] also drive
          the truncation and the prediction target. *)
}

val run : source -> (Report.t, Estima.Diag.t) result
(** Execute the backtest.  Errors are typed: a window that leaves no
    measurements, a truth sweep not covering the target grid, or any
    pipeline failure surface as a {!Estima.Diag.t} rather than an
    exception.  On success the report's error statistics cover only the
    {e extrapolated} region — core counts strictly above the measurement
    window — matching the paper's Table 4 columns. *)

val fan_out :
  f:(source -> ('a, Estima.Diag.t) result) -> source list -> ('a list, Estima.Diag.t) result
(** [f] on every source, fanned out on {!Estima_par.Fanout}: the results
    in input order, or the error of the first source that failed. *)
