open Estima_machine
open Estima_workloads
open Estima_counters
open Estima_numerics

type case = {
  name : string;
  machine : string;
  grid : float array;
  times : float array;
  stalls_per_core : float array;
  correlation : float;
}

let one name machine =
  let entry = Option.get (Suite.find name) in
  let truth = Estima.Experiment.sweep ~entry ~machine () in
  let include_software = entry.Suite.plugins <> [] in
  let times = Series.times truth in
  let stalls_per_core = Series.stalls_per_core truth ~include_frontend:false ~include_software in
  {
    name;
    machine = machine.Topology.name;
    grid = Series.threads truth;
    times;
    stalls_per_core;
    correlation = Stats.pearson stalls_per_core times;
  }

let compute () = [ one "lock-based HT" Machines.xeon20; one "lock-free SL" Machines.xeon48 ]

let run () =
  Render.heading "[F12] Figure 12 - time vs stalls for the lower-correlation cases";
  List.iter
    (fun c ->
      Render.series
        ~title:(Printf.sprintf "%s on %s (correlation %.2f)" c.name c.machine c.correlation)
        ~grid:c.grid
        ~columns:[ ("time (s)", c.times); ("stalls/core", c.stalls_per_core) ])
    (compute ())
