open Estima_machine
open Estima_workloads
open Estima_counters
open Estima

type aggregate_row = {
  name : string;
  fine_grain_error : float;
  aggregate_error : float;
  fine_grain_agrees : bool;
  aggregate_agrees : bool;
}

type sensitivity_row = {
  name : string;
  c2_error : float;
  c4_error : float;
  single_prefix_error : float;
}

type result = { aggregate : aggregate_row list; sensitivity : sensitivity_row list }

let workloads = [ "intruder"; "yada"; "kmeans"; "raytrace" ]

(* Collapse every stall source of every sample — the five backend counters
   and any software category — into one aggregate event, imitating a run
   that only collected the architecture's total-stall counter.  The
   fine-grain configuration sees the same cycles, split by category. *)
let aggregate_series (series : Series.t) =
  let samples =
    Array.map
      (fun (s : Sample.t) ->
        let total =
          List.fold_left (fun acc (_, v) -> acc +. v) 0.0 s.Sample.counters
          +. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 s.Sample.software
        in
        { s with Sample.counters = [ ("aggregate-stalls", total) ]; software = [] })
      series.Series.samples
  in
  { series with Series.samples }

let truth_for entry = Experiment.sweep ~entry ~machine:Machines.opteron48 ()

let error_of prediction truth = (Experiment.score ~prediction ~truth ()).Diag.Quality.max_error

let agrees_of prediction truth =
  (Experiment.score ~prediction ~truth ()).Diag.Quality.verdict_agrees

let aggregate_row name =
  let entry = Option.get (Suite.find name) in
  let truth = truth_for entry in
  let fine = Lab.predict ~entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48 ()
  in
  let series =
    aggregate_series (Experiment.measure ~entry ~machine:Lab.opteron_1socket ~max_threads:12 ())
  in
  let agg = Lab.ok (Predictor.predict ~series ~target_max:48 ()) in
  {
    name;
    fine_grain_error = error_of fine truth;
    aggregate_error = error_of agg truth;
    fine_grain_agrees = agrees_of fine truth;
    aggregate_agrees = agrees_of agg truth;
  }

let sensitivity_row name =
  let entry = Option.get (Suite.find name) in
  let truth = truth_for entry in
  let with_config ~checkpoints ~min_prefix =
    let series = Experiment.measure ~entry ~machine:Lab.opteron_1socket ~max_threads:12 () in
    let config =
      {
        Predictor.default_config with
        Predictor.include_software = entry.Suite.plugins <> [];
        approximation = { Approximation.default_config with Approximation.checkpoints; min_prefix };
      }
    in
    error_of (Lab.ok (Predictor.predict ~config ~series ~target_max:48 ())) truth
  in
  {
    name;
    c2_error = with_config ~checkpoints:2 ~min_prefix:3;
    c4_error = with_config ~checkpoints:4 ~min_prefix:3;
    (* Single prefix: only the largest prefix is fitted (no sweep). *)
    single_prefix_error = with_config ~checkpoints:4 ~min_prefix:8;
  }

let compute () =
  { aggregate = List.map aggregate_row workloads; sensitivity = List.map sensitivity_row workloads }

let run () =
  Render.heading "[ABL] Ablations - fine-grain vs aggregate stalls; c and prefix-sweep sensitivity";
  let r = compute () in
  Render.subheading "fine-grain categories vs one aggregate backend counter (Opteron, 12 -> 48)";
  Render.table
    ~header:[ "benchmark"; "fine-grain err"; "aggregate err"; "fine verdict"; "agg verdict" ]
    ~rows:
      (List.map
         (fun (row : aggregate_row) ->
           [
             row.name;
             Render.pct row.fine_grain_error;
             Render.pct row.aggregate_error;
             (if row.fine_grain_agrees then "correct" else "WRONG");
             (if row.aggregate_agrees then "correct" else "WRONG");
           ])
         r.aggregate);
  Render.subheading "checkpoint count and prefix sweep";
  Render.table
    ~header:[ "benchmark"; "c=2"; "c=4 (default)"; "single prefix" ]
    ~rows:
      (List.map
         (fun row ->
           [ row.name; Render.pct row.c2_error; Render.pct row.c4_error; Render.pct row.single_prefix_error ])
         r.sensitivity)
