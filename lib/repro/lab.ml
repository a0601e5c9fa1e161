open Estima_machine
open Estima_counters
open Estima_workloads
open Estima

let opteron_1socket = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let xeon20_1socket = Machines.restrict_sockets Machines.xeon20 ~sockets:1

let opteron_2sockets = Machines.restrict_sockets Machines.opteron48 ~sockets:2

let repetitions = 5

(* Opt-in audit printing for the reproduction harness: with ESTIMA_TRACE
   set (to anything but "" or "0"), every prediction made through
   [predict] runs under a recorder and prints the fit-selection audit
   table, so each reproduced figure/table explains its kernel choices. *)
(* Not a [lazy]: forcing a lazy concurrently from several domains raises
   [RacyLazy], and [predict] runs on the domain pool when the repro
   harness fans out. *)
let trace_enabled () =
  match Sys.getenv_opt "ESTIMA_TRACE" with None | Some "" | Some "0" -> false | Some _ -> true

let truth_seed_offset = 7919

(* Measurements resolve through the shared store (Estima_store): its
   in-memory tier is the compute-once promise table formerly kept here
   (shared across domains — a parallel run_all has several experiments
   collecting concurrently), and its disk tier — enabled by --store or
   ESTIMA_STORE — persists the series across processes. *)
let store () = Estima_store.Store.default ()

let collect_cached ~seed ~entry ~machine ~max_threads =
  Estima_store.Store.Cached.collect ~store:(store ())
    ~options:
      { Collector.default_options with Collector.seed; plugins = entry.Suite.plugins; repetitions }
    ~machine ~spec:entry.Suite.spec
    ~thread_counts:(Collector.default_thread_counts ~max:max_threads)
    ()

let measure ?(seed = 42) ~entry ~machine ~max_threads () = collect_cached ~seed ~entry ~machine ~max_threads

let sweep ?(seed = 42) ~entry ~machine () =
  collect_cached ~seed:(seed + truth_seed_offset) ~entry ~machine
    ~max_threads:(Topology.cores machine)

let sweep_threads ?(seed = 42) ~entry ~machine ~max_threads () =
  collect_cached ~seed:(seed + truth_seed_offset) ~entry ~machine ~max_threads

(* The repro harness runs on known-good suite inputs, so a pipeline
   diagnostic here is a bug in the harness itself — escalate it. *)
let ok = function Ok v -> v | Error d -> failwith (Diag.render d)

let predict ?software ?(checkpoints = Approximation.default_config.Approximation.checkpoints)
    ?(dataset_factor = 1.0) ?target_threads ~entry ~measure_machine ~measure_max ~target_machine () =
  let series = measure ~entry ~machine:measure_machine ~max_threads:measure_max () in
  let include_software =
    match software with Some s -> s | None -> entry.Suite.plugins <> []
  in
  let config =
    {
      Predictor.default_config with
      Predictor.include_software;
      frequency_scale = Frequency.time_scale ~measured_on:measure_machine ~target:target_machine;
      dataset_factor;
      approximation = { Approximation.default_config with Approximation.checkpoints };
    }
  in
  let target_max = Option.value ~default:(Topology.cores target_machine) target_threads in
  if trace_enabled () then begin
    let recorder = Estima_obs.Recorder.create () in
    let prediction =
      Estima_obs.Recorder.record recorder (fun () ->
          ok (Predictor.predict ~config ~series ~target_max ()))
    in
    Render.printf "\n[trace] %s: %s -> %s (%d cores)\n"
      entry.Suite.spec.Estima_sim.Spec.name measure_machine.Topology.name
      target_machine.Topology.name target_max;
    Render.audit_summary (Estima_obs.Audit.of_events (Estima_obs.Recorder.events recorder));
    prediction
  end
  else ok (Predictor.predict ~config ~series ~target_max ())

let errors_against_truth ~prediction ~truth ?(from_threads = 1) () =
  Diag.Quality.evaluate ~predicted:prediction.Predictor.predicted_times ~measured:(Series.times truth)
    ~target_grid:prediction.Predictor.target_grid ~from_threads ()

let max_error_upto (error : Diag.Quality.t) ~threads =
  List.fold_left
    (fun acc (n, e) -> if n <= threads then Float.max acc e else acc)
    0.0 error.Diag.Quality.per_point

let baseline ~entry ~measure_machine ~measure_max ~target_machine () =
  let series = measure ~entry ~machine:measure_machine ~max_threads:measure_max () in
  ok
    (Time_extrapolation.predict ~subject:series.Series.spec_name ~threads:(Series.threads series)
       ~times:(Series.times series)
       ~target_max:(Topology.cores target_machine)
       ~frequency_scale:(Frequency.time_scale ~measured_on:measure_machine ~target:target_machine)
       ())

let cache_stats () =
  let s = Estima_store.Store.stats (store ()) in
  (s.Estima_store.Store.hits, s.Estima_store.Store.misses)
