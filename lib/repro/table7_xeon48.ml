open Estima_machine
open Estima_workloads
open Estima_numerics
open Estima

type row = { name : string; xeon20_error : float; xeon48_error : float }

type summary = { average : float; std_dev : float; maximum : float }

type result = { rows : row list; xeon20_summary : summary; xeon48_summary : summary }

let one entry =
  let name = entry.Suite.spec.Estima_sim.Spec.name in
  (* Table 4 comparison column: one socket of Xeon20 to the full machine. *)
  let xeon20_error =
    let prediction =
      Lab.predict ~entry ~measure_machine:Lab.xeon20_1socket ~measure_max:10
        ~target_machine:Machines.xeon20 ()
    in
    let truth = Experiment.sweep ~entry ~machine:Machines.xeon20 () in
    (Experiment.score ~from_threads:11 ~prediction ~truth ()).Diag.Quality.max_error
  in
  (* Both Xeon20 sockets (20 cores, NUMA captured) to the 48-core Xeon48. *)
  let xeon48_error =
    let prediction =
      Lab.predict ~entry ~measure_machine:Machines.xeon20 ~measure_max:20
        ~target_machine:Machines.xeon48 ()
    in
    let truth = Experiment.sweep ~entry ~machine:Machines.xeon48 () in
    (Experiment.score ~from_threads:21 ~prediction ~truth ()).Diag.Quality.max_error
  in
  { name; xeon20_error; xeon48_error }

let summarize get rows =
  let values = Array.of_list (List.map get rows) in
  { average = Stats.mean values; std_dev = Stats.std_dev values; maximum = Vec.max_elt values }

let compute () =
  let rows = List.map one Suite.benchmarks in
  {
    rows;
    xeon20_summary = summarize (fun r -> r.xeon20_error) rows;
    xeon48_summary = summarize (fun r -> r.xeon48_error) rows;
  }

let run () =
  Render.heading "[T7] Table 7 - Xeon20 (both sockets) -> Xeon48 predictions";
  let r = compute () in
  Render.table
    ~header:[ "benchmark"; "Xeon20 errors (T4)"; "Xeon20->Xeon48 errors" ]
    ~rows:
      (List.map (fun row -> [ row.name; Render.pct row.xeon20_error; Render.pct row.xeon48_error ]) r.rows);
  Render.printf "\nXeon20 (T4):      avg %s, std %s, max %s\n" (Render.pct r.xeon20_summary.average)
    (Render.pct r.xeon20_summary.std_dev)
    (Render.pct r.xeon20_summary.maximum);
  Render.printf "Xeon20 -> Xeon48: avg %s, std %s, max %s\n%!" (Render.pct r.xeon48_summary.average)
    (Render.pct r.xeon48_summary.std_dev)
    (Render.pct r.xeon48_summary.maximum)
