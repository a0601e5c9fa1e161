open Estima_machine
open Estima_workloads
open Estima_counters
open Estima_numerics

type row = { name : string; error_without : float; error_with : float; improvement : float }

type streamcluster_detail = {
  corr_hw_only : float;
  corr_hw_sw : float;
  grid : float array;
  times : float array;
  spc_hw : float array;
  spc_hw_sw : float array;
}

type result = { rows : row list; average_improvement : float; streamcluster : streamcluster_detail }

let error_with_software entry software =
  let prediction =
    Lab.predict ~software ~entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48 ()
  in
  let truth = Estima.Experiment.sweep ~entry ~machine:Machines.opteron48 () in
  (Estima.Experiment.score ~prediction ~truth ()).Estima.Diag.Quality.max_error

let one entry =
  let error_without = error_with_software entry false in
  let error_with = error_with_software entry true in
  {
    name = entry.Suite.spec.Estima_sim.Spec.name;
    error_without;
    error_with;
    improvement = (if error_without > 0.0 then 1.0 -. (error_with /. error_without) else 0.0);
  }

let streamcluster_detail () =
  let entry = Option.get (Suite.find "streamcluster") in
  let truth = Estima.Experiment.sweep ~entry ~machine:Machines.opteron48 () in
  let times = Series.times truth in
  let spc_hw = Series.stalls_per_core truth ~include_frontend:false ~include_software:false in
  let spc_hw_sw = Series.stalls_per_core truth ~include_frontend:false ~include_software:true in
  {
    corr_hw_only = Stats.pearson spc_hw times;
    corr_hw_sw = Stats.pearson spc_hw_sw times;
    grid = Series.threads truth;
    times;
    spc_hw;
    spc_hw_sw;
  }

let compute () =
  let instrumented = List.filter (fun e -> e.Suite.plugins <> []) Suite.benchmarks in
  let rows = List.map one instrumented in
  let average_improvement = Stats.mean (Array.of_list (List.map (fun r -> r.improvement) rows)) in
  { rows; average_improvement; streamcluster = streamcluster_detail () }

let run () =
  Render.heading "[F13] Figure 13 - prediction errors with vs without software stalls (Opteron)";
  let r = compute () in
  Render.table
    ~header:[ "benchmark"; "hw only"; "hw + sw"; "improvement" ]
    ~rows:
      (List.map
         (fun row ->
           [ row.name; Render.pct row.error_without; Render.pct row.error_with; Render.pct row.improvement ])
         r.rows);
  Render.printf "\naverage improvement from software stalls: %s\n" (Render.pct r.average_improvement);
  Render.heading "[F14] Figure 14 - streamcluster: hardware-only stalls miss the sync bottleneck";
  let d = r.streamcluster in
  Render.series ~title:"streamcluster on the full Opteron" ~grid:d.grid
    ~columns:[ ("time (s)", d.times); ("spc hw-only", d.spc_hw); ("spc hw+sw", d.spc_hw_sw) ];
  Render.printf "correlation with time: hw-only %.2f vs hw+sw %.2f\n%!" d.corr_hw_only d.corr_hw_sw
