open Estima_workloads
module Experiment = Estima.Experiment
module Machines = Estima_machine.Machines
module Topology = Estima_machine.Topology

type spec = { entry : Suite.entry; protocol : Report.protocol }

(* The paper's headline protocol: measure 1 Opteron socket up to 12
   cores, predict the full 48-core machine (seed 42, 5 repetitions,
   software plugins on exactly when the workload has them — the Table 4
   configuration). *)
let opteron_protocol (entry : Suite.entry) =
  {
    Report.machine = "opteron48";
    sockets = Some 1;
    target = "opteron48";
    window = 12;
    target_max = Topology.cores Machines.opteron48;
    seed = 42;
    repetitions = Experiment.repetitions;
    include_software = entry.Suite.plugins <> [];
  }

(* Subset of Table 4 chosen to pin the error structure: the worst-case
   workload (streamcluster), both DIFFER cases (yada, streamcluster),
   clean scalers and early stoppers, and every benchmark family. *)
let default_names =
  [ "kmeans"; "intruder"; "genome"; "ssca2"; "swaptions"; "blackscholes"; "yada"; "streamcluster" ]

let of_names names =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match Suite.find name with
        | Some entry -> resolve ({ entry; protocol = opteron_protocol entry } :: acc) rest
        | None ->
            Error
              (Printf.sprintf "unknown workload %S (known: %s)" name
                 (String.concat ", " (Suite.names Suite.all))))
  in
  resolve [] names

let default =
  match of_names default_names with
  | Ok specs -> specs
  | Error msg -> invalid_arg ("Corpus.default: " ^ msg)

let machines (protocol : Report.protocol) =
  let find name =
    match Machines.find name with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "Corpus.machines: unknown machine %S" name)
  in
  let base = find protocol.Report.machine in
  ( (match protocol.Report.sockets with
    | None -> base
    | Some sockets -> Machines.restrict_sockets base ~sockets),
    find protocol.Report.target )

let source { entry; protocol } =
  let measure_machine, target_machine = machines protocol in
  let seed = protocol.Report.seed and repetitions = protocol.Report.repetitions in
  let measured =
    Experiment.measure ~seed ~repetitions ~entry ~machine:measure_machine
      ~max_threads:protocol.Report.window ()
  in
  let truth = Experiment.sweep ~seed ~repetitions ~entry ~machine:target_machine () in
  let config =
    Experiment.config ~software:protocol.Report.include_software ~entry ~measure_machine
      ~target_machine ()
  in
  {
    Backtest.name = entry.Suite.spec.Estima_sim.Spec.name;
    family = Suite.family_label entry.Suite.family;
    measured;
    truth;
    config;
    protocol;
  }
