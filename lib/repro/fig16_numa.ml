open Estima_machine
open Estima_workloads
open Estima

type case = { name : string; error_from_10 : float; error_from_14 : float; improved : bool }

let error_with_window entry ~measure_machine ~measure_max =
  let prediction =
    Lab.predict ~entry ~measure_machine ~measure_max ~target_machine:Machines.xeon20 ()
  in
  let truth = Experiment.sweep ~entry ~machine:Machines.xeon20 () in
  (Experiment.score ~from_threads:(measure_max + 1) ~prediction ~truth ()).Diag.Quality.max_error

let one name =
  let entry = Option.get (Suite.find name) in
  (* 10 cores: one socket, NUMA invisible; 14 cores: four cores of socket 2
     participate, so remote-access trends enter the measurements. *)
  let error_from_10 = error_with_window entry ~measure_machine:Lab.xeon20_1socket ~measure_max:10 in
  let error_from_14 = error_with_window entry ~measure_machine:Machines.xeon20 ~measure_max:14 in
  { name; error_from_10; error_from_14; improved = error_from_14 < error_from_10 }

let compute () = [ one "ssca2"; one "canneal" ]

let run () =
  Render.heading "[F16] Figure 16 - capturing NUMA effects in measurements (Xeon20)";
  let rows = compute () in
  Render.table
    ~header:[ "benchmark"; "window 10 (1 socket)"; "window 14 (NUMA visible)"; "improved" ]
    ~rows:
      (List.map
         (fun c ->
           [ c.name; Render.pct c.error_from_10; Render.pct c.error_from_14; string_of_bool c.improved ])
         rows)
