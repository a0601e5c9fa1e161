open Estima_machine
open Estima_workloads
open Estima

let opteron_1socket = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let xeon20_1socket = Machines.restrict_sockets Machines.xeon20 ~sockets:1

let opteron_2sockets = Machines.restrict_sockets Machines.opteron48 ~sockets:2

(* Opt-in audit printing for the reproduction harness: with ESTIMA_TRACE
   set (to anything but "" or "0"), every prediction made through
   [predict] runs under a recorder and prints the fit-selection audit
   table, so each reproduced figure/table explains its kernel choices. *)
(* Not a [lazy]: forcing a lazy concurrently from several domains raises
   [RacyLazy], and [predict] runs on the domain pool when the repro
   harness fans out. *)
let trace_enabled () =
  match Sys.getenv_opt "ESTIMA_TRACE" with None | Some "" | Some "0" -> false | Some _ -> true

(* The repro harness runs on known-good suite inputs, so a pipeline
   diagnostic here is a bug in the harness itself — escalate it. *)
let ok = function Ok v -> v | Error d -> failwith (Diag.render d)

let predict ?software ?checkpoints ?dataset_factor ?target_threads ~entry ~measure_machine
    ~measure_max ~target_machine () =
  let series = Experiment.measure ~entry ~machine:measure_machine ~max_threads:measure_max () in
  let config =
    Experiment.config ?software ?checkpoints ?dataset_factor ~entry ~measure_machine ~target_machine
      ()
  in
  let target_max = Option.value ~default:(Topology.cores target_machine) target_threads in
  let predict () = ok (Api.predict ~config ~series ~target_max ()) in
  if trace_enabled () then begin
    let recorder = Estima_obs.Recorder.create () in
    let prediction = Estima_obs.Recorder.record recorder predict in
    Render.printf "\n[trace] %s: %s -> %s (%d cores)\n"
      entry.Suite.spec.Estima_sim.Spec.name measure_machine.Topology.name
      target_machine.Topology.name target_max;
    Render.audit_summary (Estima_obs.Audit.of_events (Estima_obs.Recorder.events recorder));
    prediction
  end
  else predict ()

let baseline ~entry ~measure_machine ~measure_max ~target_machine () =
  let series = Experiment.measure ~entry ~machine:measure_machine ~max_threads:measure_max () in
  ok
    (Experiment.baseline
       ~config:(Experiment.config ~entry ~measure_machine ~target_machine ())
       ~series ~target_max:(Topology.cores target_machine))
