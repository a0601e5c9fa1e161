open Estima_machine
open Estima_workloads
open Estima_counters
open Estima_numerics

type row = { name : string; opteron : float; xeon20 : float; xeon48 : float }

type result = { rows : row list; average : float * float * float }

let delta entry machine =
  let truth = Estima.Experiment.sweep ~entry ~machine () in
  let include_software = entry.Suite.plugins <> [] in
  let times = Series.times truth in
  let corr ~include_frontend =
    Stats.pearson (Series.stalls_per_core truth ~include_frontend ~include_software) times
  in
  100.0 *. (corr ~include_frontend:true -. corr ~include_frontend:false)

let one entry =
  {
    name = entry.Suite.spec.Estima_sim.Spec.name;
    opteron = delta entry Machines.opteron48;
    xeon20 = delta entry Machines.xeon20;
    xeon48 = delta entry Machines.xeon48;
  }

let compute () =
  let rows = List.map one Suite.benchmarks in
  let avg f = Stats.mean (Array.of_list (List.map f rows)) in
  { rows; average = (avg (fun r -> r.opteron), avg (fun r -> r.xeon20), avg (fun r -> r.xeon48)) }

let run () =
  Render.heading "[T6] Table 6 - frontend+backend vs backend-only correlation change (pp)";
  let r = compute () in
  Render.table
    ~header:[ "benchmark"; "Opteron"; "Xeon20"; "Xeon48" ]
    ~rows:
      (List.map
         (fun row ->
           [
             row.name;
             Printf.sprintf "%+.2f" row.opteron;
             Printf.sprintf "%+.2f" row.xeon20;
             Printf.sprintf "%+.2f" row.xeon48;
           ])
         r.rows);
  let a1, a2, a3 = r.average in
  Render.printf "\naverage change: %+.2f / %+.2f / %+.2f percentage points\n%!" a1 a2 a3
