open Estima_machine
open Estima_workloads
open Estima_counters
open Estima_numerics

type row = { name : string; opteron : float; xeon20 : float; xeon48 : float }

type result = {
  rows : row list;
  average : float * float * float;
  minimum : float * float * float;
}

let correlation entry machine =
  let truth = Estima.Experiment.sweep ~entry ~machine () in
  let include_software = entry.Suite.plugins <> [] in
  Stats.pearson
    (Series.stalls_per_core truth ~include_frontend:false ~include_software)
    (Series.times truth)

let one entry =
  {
    name = entry.Suite.spec.Estima_sim.Spec.name;
    opteron = correlation entry Machines.opteron48;
    xeon20 = correlation entry Machines.xeon20;
    xeon48 = correlation entry Machines.xeon48;
  }

let compute () =
  let rows = List.map one Suite.benchmarks in
  let col f = Array.of_list (List.map f rows) in
  let avg f = Stats.mean (col f) in
  let min_ f = Vec.min_elt (col f) in
  {
    rows;
    average = (avg (fun r -> r.opteron), avg (fun r -> r.xeon20), avg (fun r -> r.xeon48));
    minimum = (min_ (fun r -> r.opteron), min_ (fun r -> r.xeon20), min_ (fun r -> r.xeon48));
  }

let run () =
  Render.heading "[T5] Table 5 - correlation of stalls/core with execution time (full machines)";
  let r = compute () in
  Render.table
    ~header:[ "benchmark"; "Opteron"; "Xeon20"; "Xeon48" ]
    ~rows:
      (List.map
         (fun row ->
           [
             row.name;
             Printf.sprintf "%.2f" row.opteron;
             Printf.sprintf "%.2f" row.xeon20;
             Printf.sprintf "%.2f" row.xeon48;
           ])
         r.rows);
  let a1, a2, a3 = r.average and m1, m2, m3 = r.minimum in
  Render.printf "\naverage: %.2f / %.2f / %.2f   minimum: %.2f / %.2f / %.2f\n%!" a1 a2 a3 m1 m2 m3
