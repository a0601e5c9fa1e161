open Estima_machine
open Estima_counters
open Estima_workloads

let repetitions = 5

let measure ?seed ?(repetitions = repetitions) ~entry ~machine ~max_threads () =
  Api.collect ?seed ~repetitions ~plugins:entry.Suite.plugins ~machine ~spec:entry.Suite.spec
    ~max_threads ()

let sweep ?(seed = 42) ?repetitions ?max_threads ~entry ~machine () =
  let max_threads = Option.value ~default:(Topology.cores machine) max_threads in
  measure ~seed:(seed + 7919) ?repetitions ~entry ~machine ~max_threads ()

let config ?software ?checkpoints ?dataset_factor ~entry ~measure_machine ~target_machine () =
  let include_software = Option.value ~default:(entry.Suite.plugins <> []) software in
  Config.make ?checkpoints ?dataset_factor ~include_software ~measured_on:measure_machine
    ~target:target_machine ()

let evaluate ?from_threads ~grid ~predicted truth =
  Diag.Quality.evaluate ~predicted ~measured:(Series.times truth) ~target_grid:grid ?from_threads ()

let score ?from_threads ~prediction ~truth () =
  evaluate ?from_threads ~grid:prediction.Predictor.target_grid
    ~predicted:prediction.Predictor.predicted_times truth

let max_error_upto (error : Diag.Quality.t) ~threads =
  List.fold_left
    (fun acc (n, e) -> if n <= threads then Float.max acc e else acc)
    0.0 error.Diag.Quality.per_point

let baseline ~config ~series ~target_max =
  Time_extrapolation.predict ~config:(Config.approximation config) ~subject:series.Series.spec_name
    ~threads:(Series.threads series) ~times:(Series.times series) ~target_max
    ~frequency_scale:config.Config.frequency_scale ()

let score_baseline ~baseline ~truth =
  evaluate ~grid:baseline.Time_extrapolation.target_grid
    ~predicted:baseline.Time_extrapolation.predicted_times truth

type outcome = {
  measurements : Series.t;
  prediction : Predictor.t;
  truth : Series.t;
  error : Diag.Quality.t;
  time_baseline : Time_extrapolation.t;
  baseline_error : Diag.Quality.t;
}

let ( let* ) = Result.bind

let run ?seed ?repetitions ~entry ~measure_machine ~target_machine () =
  let measurements =
    measure ?seed ?repetitions ~entry ~machine:measure_machine
      ~max_threads:(Topology.cores measure_machine) ()
  in
  let config = config ~entry ~measure_machine ~target_machine () in
  let target_max = Topology.cores target_machine in
  let* prediction = Api.predict ~config ~series:measurements ~target_max () in
  let truth = sweep ?seed ?repetitions ~entry ~machine:target_machine () in
  let* time_baseline = baseline ~config ~series:measurements ~target_max in
  Ok
    {
      measurements;
      prediction;
      truth;
      error = score ~prediction ~truth ();
      time_baseline;
      baseline_error = score_baseline ~baseline:time_baseline ~truth;
    }
