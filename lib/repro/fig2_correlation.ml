open Estima_machine
open Estima_workloads
open Estima_counters
open Estima_numerics

type workload_result = {
  name : string;
  grid : float array;
  times : float array;
  stalls_per_core : float array;
  correlation : float;
}

type result = workload_result list

let one name =
  let entry = Option.get (Suite.find name) in
  let truth = Estima.Experiment.sweep ~entry ~machine:Machines.opteron48 () in
  let include_software = entry.Suite.plugins <> [] in
  let times = Series.times truth in
  let stalls_per_core = Series.stalls_per_core truth ~include_frontend:false ~include_software in
  {
    name;
    grid = Series.threads truth;
    times;
    stalls_per_core;
    correlation = Stats.pearson stalls_per_core times;
  }

let compute () = [ one "intruder"; one "blackscholes" ]

let run () =
  Render.heading "[F2] Figure 2 - stalled cycles per core vs execution time (Opteron)";
  let results = compute () in
  List.iter
    (fun r ->
      Render.series
        ~title:(Printf.sprintf "%s (correlation %.2f)" r.name r.correlation)
        ~grid:r.grid
        ~columns:[ ("time (s)", r.times); ("stalls/core (cycles)", r.stalls_per_core) ])
    results
