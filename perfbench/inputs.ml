(* The inputs every workload draws from: the validation corpus's 8
   workloads, measured under the opteron protocol (1 socket, every core
   count up to 12), and seeded re-measurements of them. *)

open Estima_counters
module Api = Estima.Api
module Machines = Estima_machine.Machines
module Suite = Estima_workloads.Suite

let machine = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let target = Machines.opteron48

let target_max = Estima_machine.Topology.cores target

(* The knobs estima_serve builds from its default flags, so in-process
   predictions and served ones are the same computation. *)
let base = Estima.Config.make ~measured_on:machine ~target ()

let window = 12

(* One repetition per core count keeps a corpus collection near a second
   on a 2-core host, so set-up can run three times per benchmark run; the
   corpus collection seed is fixed so every seed's inputs re-measure the
   same windows, and the seed varies only what is drawn from them. *)
let repetitions = 1

let corpus_seed = 42

let entries = Array.of_list (List.map (fun s -> s.Estima_validate.Corpus.entry) Estima_validate.Corpus.default)

let name (entry : Suite.entry) = entry.Suite.spec.Estima_sim.Spec.name

let options ~seed (entry : Suite.entry) =
  { Collector.default_options with Collector.seed; plugins = entry.Suite.plugins; repetitions }

let thread_counts = Collector.default_thread_counts ~max:window

let collect ~seed entry =
  Collector.collect ~options:(options ~seed entry) ~machine ~spec:entry.Suite.spec ~thread_counts ()

(* The corpus, collected on the workload's pinned jobs setting. *)
let corpus () = Estima_par.Fanout.map entries ~f:(collect ~seed:corpus_seed)

let csv = Csv_export.series_to_csv

(* A re-measurement: every counter, software and time value multiplied
   by 1 + 0.01u with u uniform in [-1, 1] — run-to-run noise of a real
   measurement, small enough that every prediction still succeeds. *)
let perturb rng (series : Series.t) =
  let noisy v = v *. (1.0 +. (0.01 *. ((2.0 *. Rand.float rng) -. 1.0))) in
  let sample (s : Sample.t) =
    {
      s with
      Sample.time_seconds = noisy s.Sample.time_seconds;
      counters = List.map (fun (k, v) -> (k, noisy v)) s.Sample.counters;
      software = List.map (fun (k, v) -> (k, noisy v)) s.Sample.software;
    }
  in
  Series.make ~machine:series.Series.machine ~spec_name:series.Series.spec_name
    (List.map sample (Array.to_list series.Series.samples))

(* The text estima_cli predict prints, in the order it prints it. *)
let render_prediction p =
  String.concat "\n"
    ([ Api.render_summary p; Api.rows_header ] @ Api.render_rows p @ [ Api.render_verdict p ])
