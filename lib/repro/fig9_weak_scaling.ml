open Estima_machine
open Estima_sim
open Estima_workloads
open Estima_counters
open Estima

type curve = {
  name : string;
  grid : float array;
  predicted : float array;
  measured : float array;
  max_error_excl_single : float;
  verdict_agrees : bool;
}

let dataset_factor = 2.0

let one name =
  let entry = Option.get (Suite.find name) in
  let prediction =
    Lab.predict ~dataset_factor ~entry ~measure_machine:Lab.xeon20_1socket ~measure_max:10
      ~target_machine:Machines.xeon20 ()
  in
  (* Ground truth: the full machine actually runs the doubled dataset. *)
  let scaled_spec =
    let s = Spec.dataset_scale entry.Suite.spec dataset_factor in
    { s with Spec.name = s.Spec.name ^ "@2x" }
  in
  let truth =
    Experiment.sweep ~entry:{ entry with Suite.spec = scaled_spec } ~machine:Machines.xeon20 ()
  in
  let error = Experiment.score ~from_threads:2 ~prediction ~truth () in
  {
    name;
    grid = prediction.Predictor.target_grid;
    predicted = prediction.Predictor.predicted_times;
    measured = Series.times truth;
    max_error_excl_single = error.Diag.Quality.max_error;
    verdict_agrees = error.Diag.Quality.verdict_agrees;
  }

let compute () = [ one "genome"; one "intruder" ]

let run () =
  Render.heading "[F9] Figure 9 - weak scaling: Xeon20 socket -> full machine with 2x dataset";
  List.iter
    (fun c ->
      Render.series
        ~title:
          (Printf.sprintf "%s (max error excl. 1 core: %s, verdict agreement: %b)" c.name
             (Render.pct c.max_error_excl_single) c.verdict_agrees)
        ~grid:c.grid
        ~columns:[ ("predicted (s)", c.predicted); ("measured 2x (s)", c.measured) ])
    (compute ())
