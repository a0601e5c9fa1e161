open Estima_machine
open Estima_workloads
open Estima_counters
open Estima

type window_result = {
  measure_max : int;
  max_error : float;
  verdict : Diag.Quality.verdict;
  predicted : float array;
}

type result = {
  grid : float array;
  measured : float array;
  from_12 : window_result;
  from_24 : window_result;
}

let window entry truth ~measure_machine ~measure_max =
  let prediction =
    Lab.predict ~software:true ~entry ~measure_machine ~measure_max
      ~target_machine:Machines.opteron48 ()
  in
  let error = Experiment.score ~prediction ~truth () in
  {
    measure_max;
    max_error = error.Diag.Quality.max_error;
    verdict = error.Diag.Quality.predicted_verdict;
    predicted = prediction.Predictor.predicted_times;
  }

let compute () =
  let entry = Option.get (Suite.find "streamcluster") in
  let truth = Experiment.sweep ~entry ~machine:Machines.opteron48 () in
  {
    grid = Series.threads truth;
    measured = Series.times truth;
    from_12 = window entry truth ~measure_machine:Lab.opteron_1socket ~measure_max:12;
    from_24 = window entry truth ~measure_machine:Lab.opteron_2sockets ~measure_max:24;
  }

let improved r = r.from_24.max_error < r.from_12.max_error

let run () =
  Render.heading "[F15] Figure 15 - streamcluster: 12-core vs 24-core measurement window";
  let r = compute () in
  Render.series ~title:"predicted vs measured execution time (s)" ~grid:r.grid
    ~columns:
      [
        ("from 12 cores", r.from_12.predicted);
        ("from 24 cores", r.from_24.predicted);
        ("measured", r.measured);
      ];
  Render.printf "\nfrom 12 cores: max error %s (%s)\nfrom 24 cores: max error %s (%s)\n%!"
    (Render.pct r.from_12.max_error)
    (Render.verdict r.from_12.verdict)
    (Render.pct r.from_24.max_error)
    (Render.verdict r.from_24.verdict);
  Render.printf "wider window improves the prediction: %b\n%!" (improved r)
