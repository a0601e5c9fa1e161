open Estima_workloads
module Lab = Estima_repro.Lab
module Machines = Estima_machine.Machines
module Topology = Estima_machine.Topology

type spec = { entry : Suite.entry; protocol : Report.protocol }

let opteron_protocol (entry : Suite.entry) =
  {
    Report.machine = "opteron48";
    sockets = Some 1;
    target = "opteron48";
    window = 12;
    target_max = Topology.cores Machines.opteron48;
    seed = 42;
    repetitions = Lab.repetitions;
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

let machine_exn name =
  match Machines.find name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Corpus.source: unknown machine %S" name)

let source { entry; protocol } =
  let base = machine_exn protocol.Report.machine in
  let measure_machine =
    match protocol.Report.sockets with
    | None -> base
    | Some sockets -> Machines.restrict_sockets base ~sockets
  in
  let target_machine = machine_exn protocol.Report.target in
  let measured =
    Lab.measure ~seed:protocol.Report.seed ~entry ~machine:measure_machine
      ~max_threads:protocol.Report.window ()
  in
  let truth = Lab.sweep ~seed:protocol.Report.seed ~entry ~machine:target_machine () in
  let config =
    Estima.Config.make ~include_software:protocol.Report.include_software
      ~measured_on:measure_machine ~target:target_machine ()
  in
  {
    Backtest.name = entry.Suite.spec.Estima_sim.Spec.name;
    family = Suite.family_label entry.Suite.family;
    measured;
    truth;
    config;
    protocol;
  }
