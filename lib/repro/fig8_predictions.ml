open Estima_machine
open Estima_workloads
open Estima_counters
open Estima

type curve = {
  name : string;
  grid : float array;
  predicted : float array;
  baseline : float array;
  measured : float array;
  error : Diag.Quality.t;
}

let workloads = [ "raytrace"; "intruder"; "yada"; "kmeans" ]

let one name =
  let entry = Option.get (Suite.find name) in
  let prediction =
    Lab.predict ~entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48 ()
  in
  let baseline =
    Lab.baseline ~entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48 ()
  in
  let truth = Experiment.sweep ~entry ~machine:Machines.opteron48 () in
  {
    name;
    grid = prediction.Predictor.target_grid;
    predicted = prediction.Predictor.predicted_times;
    baseline = baseline.Time_extrapolation.predicted_times;
    measured = Series.times truth;
    error = Experiment.score ~prediction ~truth ();
  }

let compute () = List.map one workloads

let run () =
  Render.heading "[F8] Figure 8 - prediction curves (Opteron, measure 12 -> 48)";
  List.iter
    (fun c ->
      Render.series
        ~title:
          (Printf.sprintf "%s: max err %s, prediction %s / measured %s" c.name
             (Render.pct c.error.Diag.Quality.max_error)
             (Render.verdict c.error.Diag.Quality.predicted_verdict)
             (Render.verdict c.error.Diag.Quality.measured_verdict))
        ~grid:c.grid
        ~columns:
          [ ("ESTIMA (s)", c.predicted); ("time-extrap (s)", c.baseline); ("measured (s)", c.measured) ])
    (compute ())
