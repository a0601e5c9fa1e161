open Estima_machine
open Estima_workloads
open Estima_numerics
open Estima

type row = {
  name : string;
  family : string;
  opteron_2cpu : float;
  opteron_3cpu : float;
  opteron_4cpu : float;
  xeon20_2cpu : float;
  opteron_agrees : bool;
  xeon20_agrees : bool;
}

type summary = { average : float; std_dev : float; maximum : float }

type result = { rows : row list; opteron_4cpu_summary : summary; xeon20_summary : summary }

(* Errors are taken over the extrapolated region (beyond the measurement
   window) up to each target size. *)
let errors_for entry ~measure_machine ~measure_max ~target_machine =
  let prediction =
    Lab.predict ~entry ~measure_machine ~measure_max ~target_machine ()
  in
  let truth = Experiment.sweep ~entry ~machine:target_machine () in
  let error = Experiment.score ~from_threads:(measure_max + 1) ~prediction ~truth () in
  (prediction, error)

let one entry =
  let name = entry.Suite.spec.Estima_sim.Spec.name in
  let _, opteron_error =
    errors_for entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48
  in
  let _, xeon_error =
    errors_for entry ~measure_machine:Lab.xeon20_1socket ~measure_max:10
      ~target_machine:Machines.xeon20
  in
  {
    name;
    family = Suite.family_label entry.Suite.family;
    opteron_2cpu = Experiment.max_error_upto opteron_error ~threads:24;
    opteron_3cpu = Experiment.max_error_upto opteron_error ~threads:36;
    opteron_4cpu = Experiment.max_error_upto opteron_error ~threads:48;
    xeon20_2cpu = Experiment.max_error_upto xeon_error ~threads:20;
    opteron_agrees = opteron_error.Diag.Quality.verdict_agrees;
    xeon20_agrees = xeon_error.Diag.Quality.verdict_agrees;
  }

let summarize get rows =
  let values = Array.of_list (List.map get rows) in
  { average = Stats.mean values; std_dev = Stats.std_dev values; maximum = Vec.max_elt values }

let compute () =
  let rows = List.map one Suite.benchmarks in
  {
    rows;
    opteron_4cpu_summary = summarize (fun r -> r.opteron_4cpu) rows;
    xeon20_summary = summarize (fun r -> r.xeon20_2cpu) rows;
  }

let run () =
  Render.heading "[T4] Table 4 - maximum prediction errors (measure 1 socket, predict full machine)";
  let r = compute () in
  Render.table
    ~header:
      [ "benchmark"; "family"; "Opt 2CPU"; "Opt 3CPU"; "Opt 4CPU"; "Xeon20 2CPU"; "verdictOpt"; "verdictXeon" ]
    ~rows:
      (List.map
         (fun row ->
           [
             row.name;
             row.family;
             Render.pct row.opteron_2cpu;
             Render.pct row.opteron_3cpu;
             Render.pct row.opteron_4cpu;
             Render.pct row.xeon20_2cpu;
             (if row.opteron_agrees then "agree" else "DIFFER");
             (if row.xeon20_agrees then "agree" else "DIFFER");
           ])
         r.rows);
  Render.printf "\nOpteron 4 CPUs: avg %s, std %s, max %s\n"
    (Render.pct r.opteron_4cpu_summary.average)
    (Render.pct r.opteron_4cpu_summary.std_dev)
    (Render.pct r.opteron_4cpu_summary.maximum);
  Render.printf "Xeon20 2 CPUs:  avg %s, std %s, max %s\n%!" (Render.pct r.xeon20_summary.average)
    (Render.pct r.xeon20_summary.std_dev)
    (Render.pct r.xeon20_summary.maximum)
