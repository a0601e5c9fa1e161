open Estima_machine
open Estima_workloads
open Estima_counters
open Estima

type result = {
  grid : float array;
  baseline_times : float array;
  measured_times : float array;
  baseline_verdict : Diag.Quality.verdict;
  measured_verdict : Diag.Quality.verdict;
}

let compute () =
  let entry = Option.get (Suite.find "kmeans") in
  let baseline =
    Lab.baseline ~entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48 ()
  in
  let truth = Experiment.sweep ~entry ~machine:Machines.opteron48 () in
  let grid = baseline.Time_extrapolation.target_grid in
  let measured_times = Series.times truth in
  {
    grid;
    baseline_times = baseline.Time_extrapolation.predicted_times;
    measured_times;
    baseline_verdict = Diag.Quality.scaling_verdict ~times:baseline.Time_extrapolation.predicted_times ~grid;
    measured_verdict = Diag.Quality.scaling_verdict ~times:measured_times ~grid;
  }

let mispredicts r =
  not (Diag.Quality.agreement ~predicted:r.baseline_verdict ~measured:r.measured_verdict)

let run () =
  Render.heading "[F1] Figure 1 - time extrapolation for kmeans (Opteron, measure <=12)";
  let r = compute () in
  Render.series ~title:"kmeans execution time (s)" ~grid:r.grid
    ~columns:[ ("time-extrapolation", r.baseline_times); ("measured", r.measured_times) ];
  Render.printf "\ntime extrapolation says: %s; the machine says: %s -> %s\n%!"
    (Render.verdict r.baseline_verdict)
    (Render.verdict r.measured_verdict)
    (if mispredicts r then "MISPREDICTION (the figure's point)" else "agreement")
