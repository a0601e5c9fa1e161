(* The repository's benchmark: one named workload per run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --smoke

   Untraced runs print the end-to-end metrics, traced runs the per-layer
   ones; the last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
   only when every output check passed.  --smoke runs every workload at
   toy length and checks the printed metrics against BENCHMARK.json.
   perfbench/README.md describes the workloads and the metrics. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     \       main.exe --smoke\n\
      workloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let run (w : Workloads.workload) ~seed ~seconds ~trace =
  (* The environment does not configure the benchmark: no shared store
     directory, and jobs 1. *)
  Estima_store.Store.set_dir (Estima_store.Store.default ()) None;
  Estima_par.Fanout.set_jobs (Some 1);
  let cores = List.length (Lazy.force Calibrate.allowed) in
  Calibrate.pin ();
  Printf.printf "host: cores=%d pinned to cpu %d ocaml=%s git=%s workload=%s jobs=1 seed=%d seconds=%g trace=%b\n%!"
    cores (Calibrate.current_cpu ()) Sys.ocaml_version (Util.git_describe ()) w.Workloads.name seed seconds trace;
  let report = Report.create () in
  let spans = Spans.create ~enabled:trace in
  (try
     w.Workloads.run
       {
         Workloads.seed;
         sensitivity = w.Workloads.sensitivity;
         tail_sensitivity = w.Workloads.tail_sensitivity;
         seconds;
         trace;
         spans;
         report;
       }
   with e -> Report.check report ("workload raised " ^ Printexc.to_string e) false);
  if trace then Spans.write_out spans;
  Report.print report ~trace;
  report

(* Every workload, briefly and traced. *)
let smoke () =
  let declared key =
    match Estima_service.Json.parse (Util.read_file "BENCHMARK.json") with
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
    | Ok json -> (
        match Estima_service.Json.member key json with
        | Some (Estima_service.Json.List items) ->
            List.map
              (fun item ->
                let field f =
                  Option.value ~default:""
                    (Option.bind (Estima_service.Json.member f item) Estima_service.Json.to_string_opt)
                in
                (field "name", field "unit"))
              items
        | _ -> failwith ("BENCHMARK.json: no " ^ key))
  in
  let failures = ref [] in
  let expect what ok = if not ok then failures := what :: !failures in
  expect "BENCHMARK.json end_to_end = the printed end-to-end metrics"
    (declared "end_to_end" = Report.end_to_end);
  expect "BENCHMARK.json per_layer = the printed per-layer metrics" (declared "per_layer" = Report.per_layer);
  expect "BENCHMARK.json workloads = the benchmark's workloads"
    (List.map fst (declared "workloads") = List.map (fun w -> w.Workloads.name) Workloads.all);
  List.iter
    (fun w ->
      let report = run w ~seed:1 ~seconds:1.0 ~trace:true in
      expect (w.Workloads.name ^ ": output checks") (Report.correct report);
      List.iter
        (fun (name, _) ->
          expect
            (Printf.sprintf "%s: %s measured" w.Workloads.name name)
            (match Hashtbl.find_opt report.Report.e2e name with
            | Some (v, _, _) -> Float.is_finite v && v > 0.0
            | None -> false))
        Report.end_to_end)
    Workloads.all;
  List.iter (Printf.printf "SMOKE FAILURE: %s\n") (List.rev !failures);
  Printf.printf "smoke: %s\n%!" (if !failures = [] then "ok" else "FAILED");
  exit (if !failures = [] then 0 else 1)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec parse ((workload, seed, seconds, trace) as acc) = function
    | [] -> acc
    | "--workload" :: v :: rest -> parse (Some v, seed, seconds, trace) rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s -> parse (workload, Some s, seconds, trace) rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> parse (workload, seed, Some s, trace) rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> parse (workload, seed, seconds, Some (v = "1")) rest
    | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "--smoke" ] -> smoke ()
  | args -> (
      match parse (None, None, None, None) args with
      | Some name, Some seed, Some seconds, Some trace -> (
          match List.find_opt (fun w -> w.Workloads.name = name) Workloads.all with
          | None -> usage ()
          | Some w ->
              let report = run w ~seed ~seconds ~trace in
              exit (if Report.correct report then 0 else 1))
      | _ -> usage ())
