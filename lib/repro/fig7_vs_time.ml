open Estima_machine
open Estima_workloads
open Estima

type row = {
  name : string;
  estima_error : float;
  baseline_error : float;
  estima_agrees : bool;
  baseline_agrees : bool;
}

let workloads = [ "intruder"; "yada"; "kmeans"; "vacation-high"; "bodytrack"; "streamcluster" ]

let one name =
  let entry = Option.get (Suite.find name) in
  let prediction =
    Lab.predict ~entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48 ()
  in
  let truth = Experiment.sweep ~entry ~machine:Machines.opteron48 () in
  let error = Experiment.score ~prediction ~truth () in
  let baseline =
    Lab.baseline ~entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48 ()
  in
  let baseline_error = Experiment.score_baseline ~baseline ~truth in
  {
    name;
    estima_error = error.Diag.Quality.max_error;
    baseline_error = baseline_error.Diag.Quality.max_error;
    estima_agrees = error.Diag.Quality.verdict_agrees;
    baseline_agrees = baseline_error.Diag.Quality.verdict_agrees;
  }

let compute () = List.map one workloads

(* Number of workloads where ESTIMA has both a (weakly) lower error and a
   correct verdict when the baseline's is wrong, or strictly lower error
   otherwise. *)
let estima_wins rows =
  List.length
    (List.filter
       (fun r ->
         (r.estima_agrees && not r.baseline_agrees)
         || (r.estima_agrees = r.baseline_agrees && r.estima_error < r.baseline_error))
       rows)

let run () =
  Render.heading "[F7] Figure 7 - ESTIMA vs time extrapolation (Opteron, measure 12 -> 48)";
  let rows = compute () in
  Render.table
    ~header:[ "benchmark"; "ESTIMA err"; "time-extrap err"; "ESTIMA verdict"; "time-extrap verdict" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.name;
             Render.pct r.estima_error;
             Render.pct r.baseline_error;
             (if r.estima_agrees then "correct" else "WRONG");
             (if r.baseline_agrees then "correct" else "WRONG");
           ])
         rows);
  Render.printf "\nESTIMA wins on %d of %d divergent workloads\n%!" (estima_wins rows) (List.length rows)
