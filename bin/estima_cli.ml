(* The estima command-line tool.

   Subcommands:
     list                      workloads and machines
     collect                   print a measurement series
     predict                   measure on a small machine, predict a big one
     compare                   ESTIMA vs time extrapolation vs ground truth
     bottleneck                rank future stall categories
     validate                  accuracy gate: backtest vs golden corpus
     repro                     run one or all paper experiments
     store                     inspect/clear/warm the on-disk measurement store *)

open Cmdliner
open Estima_machine
open Estima_workloads
open Estima_counters
open Estima

let machine_conv =
  let parse s =
    match Machines.find s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown machine %S (known: %s)" s
                (String.concat ", " (List.map (fun m -> m.Topology.name) Machines.all))))
  in
  let print ppf m = Format.fprintf ppf "%s" m.Topology.name in
  Arg.conv (parse, print)

let entry_conv =
  let parse s =
    match Suite.find s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown workload %S (see `estima_cli list`)" s))
  in
  let print ppf e = Format.fprintf ppf "%s" e.Suite.spec.Estima_sim.Spec.name in
  Arg.conv (parse, print)

let workload_arg =
  Arg.(required & pos 0 (some entry_conv) None & info [] ~docv:"WORKLOAD" ~doc:"Workload name.")

let machine_arg ~default names doc =
  Arg.(value & opt machine_conv default & info names ~docv:"MACHINE" ~doc)

let sockets_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sockets" ] ~docv:"N" ~doc:"Restrict the measurements machine to its first $(docv) sockets.")

(* The cross-binary flags (--jobs/--store/--trace/--window/--confidence)
   come from Config.Args so estima_cli, estima_serve and bench accept the
   same spellings and print the same errors. *)
let window_arg = Config.Args.window

let software_arg =
  Arg.(
    value & flag
    & info [ "software"; "s" ]
        ~doc:"Include software stalled cycles (SwissTM statistics / pthread wrapper) when available.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let trace_arg = Config.Args.trace

(* The trace rendered by Api.predict_traced, printed after the normal
   output (text traces get a separating blank line; JSON already ends in
   a newline). *)
let print_trace (config : Config.t) rendered =
  match (config.Config.trace, rendered) with
  | Some Config.Text, Some trace -> Printf.printf "\n%s\n" trace
  | Some Config.Json, Some trace -> print_string trace
  | _ -> ()

let reps_arg =
  Arg.(value & opt int 5 & info [ "repetitions" ] ~docv:"N" ~doc:"Averaged runs per measured point.")

let jobs_arg = Config.Args.jobs
let apply_jobs = Config.Args.apply_jobs
let store_arg = Config.Args.store
let apply_store = Config.Args.apply_store
let confidence_arg = Config.Args.confidence

(* Diagnostic exit convention: 2 = malformed input, 3 = well-formed input
   ESTIMA cannot extrapolate (no realistic fit). *)
let fail_diag d =
  prerr_endline (Diag.render d);
  exit (Diag.exit_code d)

let unwrap_diag = function Ok v -> v | Error d -> fail_diag d

(* Through Api.validate_sockets so an out-of-range --sockets is a typed
   diagnostic (exit 2), not the restriction's exception. *)
let restrict machine = function
  | None -> machine
  | Some sockets ->
      unwrap_diag (Api.validate_sockets ~machine ~sockets);
      Machines.restrict_sockets machine ~sockets

(* Through Api.collect_checked so an out-of-range --window is a typed
   diagnostic (exit 2), not an allocator exception. *)
let collect_series ~entry ~machine ~max_threads ~seed ~repetitions =
  unwrap_diag
    (Api.collect_checked ~seed ~repetitions ~plugins:entry.Suite.plugins ~machine
       ~spec:entry.Suite.spec ~max_threads ())

(* ---------------------------- list ------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "machines:\n";
    List.iter (fun m -> Format.printf "  %a@." Topology.pp m) Machines.all;
    Printf.printf "\nworkloads:\n";
    List.iter
      (fun e ->
        Printf.printf "  %-24s %-12s %s\n" e.Suite.spec.Estima_sim.Spec.name
          (Suite.family_label e.Suite.family)
          (String.concat ", " (List.map (fun p -> p.Plugin.name) e.Suite.plugins)))
      Suite.all;
    Printf.printf "\npaper experiments: %s\n"
      (String.concat ", " (List.map fst Estima_repro.All.experiments))
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, machines and experiments.")
    Term.(const run $ const ())

(* --------------------------- collect ------------------------------ *)

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH" ~doc:"Additionally write the series as CSV to $(docv).")

let plugin_config_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "plugin-config" ] ~docv:"FILE"
        ~doc:
          "Plugin configuration file (paper Section 4.1): stanzas of name/source/expression/combine            applied to the runtime's report.")

let collect_cmd =
  let run entry machine sockets window seed reps csv plugin_config store =
    apply_store store;
    let machine = restrict machine sockets in
    let max_threads = Option.value ~default:(Topology.cores machine) window in
    unwrap_diag (Api.validate_window ~machine ~max_threads);
    unwrap_diag (Api.validate_repetitions ~spec:entry.Suite.spec ~repetitions:reps);
    let config_plugins =
      match plugin_config with
      | None -> []
      | Some path -> (
          match Plugin_config.load ~path with
          | Ok entries -> entries
          | Error e ->
              prerr_endline ("plugin config: " ^ e);
              exit 1)
    in
    let series =
      Estima_store.Store.Cached.collect
        ~options:
          { Collector.seed; plugins = entry.Suite.plugins; config_plugins; repetitions = reps }
        ~machine ~spec:entry.Suite.spec
        ~thread_counts:(Collector.default_thread_counts ~max:max_threads)
        ()
    in
    let categories = Series.categories series ~include_frontend:true in
    Format.printf "%s on %a@." entry.Suite.spec.Estima_sim.Spec.name Topology.pp machine;
    Printf.printf "%-8s %-12s %s\n" "cores" "time(s)" (String.concat " " categories);
    Array.iter
      (fun (s : Sample.t) ->
        Printf.printf "%-8d %-12.5f %s\n" s.Sample.threads s.Sample.time_seconds
          (String.concat " " (List.map (fun c -> Printf.sprintf "%.3g" (Sample.counter s c)) categories)))
      series.Series.samples;
    match csv with
    | None -> ()
    | Some path ->
        Csv_export.write ~path (Csv_export.series_to_csv series);
        Printf.printf "wrote %s\n" path
  in
  Cmd.v (Cmd.info "collect" ~doc:"Collect and print a measurement series.")
    Term.(
      const run $ workload_arg
      $ machine_arg ~default:Machines.opteron48 [ "machine"; "m" ] "Machine to measure on."
      $ sockets_arg $ window_arg $ seed_arg $ reps_arg $ csv_arg $ plugin_config_arg
      $ store_arg)

(* --------------------------- predict ------------------------------ *)

let from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "from" ] ~docv:"FILE.csv"
        ~doc:
          "Skip simulated collection and predict from an externally measured series in $(docv)            (the schema `collect --csv` writes: threads, time_seconds, counter and plugin            columns).  The WORKLOAD argument is not needed; the measurements machine            ($(b,--machine)) supplies the vendor and clock of the machine the CSV was            collected on.")

let expr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "expr" ] ~docv:"EXPR"
        ~doc:
          "Scan expression for $(b,--software) $(i,REPORT): literal text with a single %d            marking the value, e.g. 'stm-abort-cycles %d' — one match per measured thread            count.  The category is named after the expression's literal text.")

let predict_software_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "software"; "s" ] ~docv:"REPORT"
        ~doc:
          "Include software stalled cycles.  With a collected workload, bare $(b,--software)            enables its plugins.  With $(b,--from), $(docv) names a runtime report file            scanned with $(b,--expr) for one software stall category.")

(* The software category takes its name from the expression's literal
   text: "stm-abort-cycles %d" -> "stm-abort-cycles". *)
let expression_category expression =
  let n = String.length expression in
  let rec find i =
    if i + 1 >= n then None
    else if expression.[i] = '%' && expression.[i + 1] = 'd' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> "software"
  | Some i -> (
      match String.trim (String.sub expression 0 i ^ String.sub expression (i + 2) (n - i - 2)) with
      | "" -> "software"
      | name -> name)

let ingested_series ~path ~machine ~software ~expr =
  let spec_name = Filename.remove_extension (Filename.basename path) in
  let series = unwrap_diag (Ingest.load_series ~machine ~spec_name path) in
  match software with
  | None | Some "" -> (series, false)
  | Some report_path ->
      let expression =
        match expr with
        | Some e -> e
        | None ->
            prerr_endline "estima_cli predict: --software REPORT requires --expr EXPR";
            exit 2
      in
      let report = unwrap_diag (Ingest.load_report report_path) in
      let series =
        unwrap_diag
          (Ingest.attach_software ~name:(expression_category expression) ~expression ~report series)
      in
      (series, true)

(* The --confidence addendum shared by predict and the service: run the
   bootstrap on the already-predicted series and print the band table.
   predict_with_confidence re-runs the (deterministic) point prediction
   internally; the resamples dominate the cost. *)
let print_confidence ~config ~series ~target_max ~resamples prediction =
  match Api.predict_with_confidence ~config ~resamples ~series ~target_max () with
  | Error d -> fail_diag d
  | Ok (_, c) ->
      Printf.printf "\n%s\n\n" (Api.render_confidence_summary c);
      print_endline (Api.confidence_rows_header c);
      List.iter print_endline (Api.render_confidence_rows prediction c);
      Printf.printf "\nconfidence: %s\n" (Api.render_confidence_verdict c)

let predict_cmd =
  let run entry from measure_machine sockets window target software expr seed reps trace jobs
      store confidence =
    apply_jobs jobs;
    apply_store store;
    let measure_machine = restrict measure_machine sockets in
    let series, include_software =
      match (from, entry) with
      | Some path, _ -> ingested_series ~path ~machine:measure_machine ~software ~expr
      | None, Some entry ->
          let max_threads = Option.value ~default:(Topology.cores measure_machine) window in
          ( collect_series ~entry ~machine:measure_machine ~max_threads ~seed ~repetitions:reps,
            Option.is_some software && entry.Suite.plugins <> [] )
      | None, None ->
          prerr_endline "estima_cli predict: a WORKLOAD name or --from FILE.csv is required";
          exit 2
    in
    let config = Config.make ~include_software ~measured_on:measure_machine ~target ?trace () in
    let result, rendered_trace =
      Api.predict_traced ~config ~series ~target_max:(Topology.cores target) ()
    in
    match result with
    | Error d ->
        (* Print the trace first: with --trace it explains, per candidate
           and stage, why the pipeline had nothing to offer. *)
        print_trace config rendered_trace;
        fail_diag d
    | Ok prediction ->
        Printf.printf "%s\n\n" (Api.render_summary prediction);
        print_endline Api.rows_header;
        List.iter print_endline (Api.render_rows prediction);
        Printf.printf "\nprediction: %s\n" (Api.render_verdict prediction);
        (match confidence with
        | None -> ()
        | Some resamples ->
            print_confidence ~config ~series ~target_max:(Topology.cores target) ~resamples
              prediction);
        print_trace config rendered_trace
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Measure on a small machine (or ingest your own measurements with --from) and predict a          larger one.  Exits 2 on malformed input, 3 when no realistic fit exists.")
    Term.(
      const run
      $ Arg.(value & pos 0 (some entry_conv) None & info [] ~docv:"WORKLOAD" ~doc:"Workload name (omit with --from).")
      $ from_arg
      $ machine_arg ~default:(Machines.restrict_sockets Machines.opteron48 ~sockets:1)
          [ "machine"; "m" ] "Measurements machine."
      $ sockets_arg $ window_arg
      $ machine_arg ~default:Machines.opteron48 [ "target"; "t" ] "Target machine."
      $ predict_software_arg $ expr_arg $ seed_arg $ reps_arg $ trace_arg $ jobs_arg
      $ store_arg $ confidence_arg)

(* --------------------------- compare ------------------------------ *)

let compare_cmd =
  let run entry target software seed reps jobs store confidence =
    apply_jobs jobs;
    apply_store store;
    ignore software;
    unwrap_diag (Api.validate_repetitions ~spec:entry.Suite.spec ~repetitions:reps);
    let setup =
      {
        (Experiment.default_setup ~entry
           ~measure_machine:(Machines.restrict_sockets target ~sockets:1)
           ~target_machine:target)
        with
        Experiment.seed;
        repetitions = reps;
        config = Config.predictor (Config.make ~include_software:(entry.Suite.plugins <> []) ());
      }
    in
    let o = unwrap_diag (Experiment.run setup) in
    let truth = Series.times o.Experiment.truth in
    Printf.printf "cores  estima(s)  time-extrap(s)  measured(s)\n";
    Array.iteri
      (fun i n ->
        Printf.printf "%5.0f  %9.5f  %14.5f  %11.5f\n" n
          o.Experiment.prediction.Predictor.predicted_times.(i)
          o.Experiment.time_baseline.Time_extrapolation.predicted_times.(i)
          truth.(i))
      o.Experiment.prediction.Predictor.target_grid;
    Printf.printf "\nESTIMA:      max error %.1f%%, verdict %s (%s)\n"
      (100.0 *. o.Experiment.error.Diag.Quality.max_error)
      (Diag.Quality.verdict_to_string o.Experiment.error.Diag.Quality.predicted_verdict)
      (if o.Experiment.error.Diag.Quality.verdict_agrees then "correct" else "wrong");
    Printf.printf "time-extrap: max error %.1f%%, verdict %s (%s)\n"
      (100.0 *. o.Experiment.baseline_error.Diag.Quality.max_error)
      (Diag.Quality.verdict_to_string o.Experiment.baseline_error.Diag.Quality.predicted_verdict)
      (if o.Experiment.baseline_error.Diag.Quality.verdict_agrees then "correct" else "wrong");
    Printf.printf "measured:    %s\n" (Diag.Quality.verdict_to_string o.Experiment.error.Diag.Quality.measured_verdict);
    match confidence with
    | None -> ()
    | Some resamples -> (
        (* The bootstrap re-predicts under the Api config (same machines,
           same window), so its verdict is directly comparable to the
           ESTIMA row above. *)
        let config =
          Config.make
            ~include_software:(entry.Suite.plugins <> [])
            ~measured_on:(Machines.restrict_sockets target ~sockets:1)
            ~target ()
        in
        match
          Api.predict_with_confidence ~config ~resamples ~series:o.Experiment.measurements
            ~target_max:(Topology.cores target) ()
        with
        | Error d -> fail_diag d
        | Ok (_, c) ->
            Printf.printf "\n%s\nconfidence:  %s\n" (Api.render_confidence_summary c)
              (Api.render_confidence_verdict c))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"ESTIMA vs time extrapolation vs ground truth on one machine.")
    Term.(
      const run $ workload_arg
      $ machine_arg ~default:Machines.opteron48 [ "target"; "t" ] "Machine (measure 1 socket, predict all)."
      $ software_arg $ seed_arg $ reps_arg $ jobs_arg $ store_arg $ confidence_arg)

(* -------------------------- bottleneck ---------------------------- *)

let bottleneck_cmd =
  let run entry target sockets window seed reps trace jobs store =
    apply_jobs jobs;
    apply_store store;
    let measure_machine = restrict target (Some (Option.value ~default:1 sockets)) in
    let max_threads = Option.value ~default:(Topology.cores measure_machine) window in
    let series = collect_series ~entry ~machine:measure_machine ~max_threads ~seed ~repetitions:reps in
    let config = Config.make ~include_software:true ?trace () in
    let result, rendered_trace =
      Api.predict_traced ~config ~series ~target_max:(Topology.cores target) ()
    in
    match result with
    | Error d ->
        print_trace config rendered_trace;
        fail_diag d
    | Ok prediction ->
        Format.printf "%a@." Bottleneck.pp (Bottleneck.analyze prediction);
        print_trace config rendered_trace
  in
  Cmd.v
    (Cmd.info "bottleneck" ~doc:"Rank the stall categories that will dominate at scale.")
    Term.(
      const run $ workload_arg
      $ machine_arg ~default:Machines.opteron48 [ "target"; "t" ] "Target machine."
      $ sockets_arg $ window_arg $ seed_arg $ reps_arg $ trace_arg $ jobs_arg $ store_arg)

(* --------------------------- validate ----------------------------- *)

(* The accuracy gate (Estima_validate.Gate): backtest the corpus, compare
   against the golden snapshots, prove the three prediction surfaces
   byte-identical.  Exit codes: 0 pass, 1 gate failure, the usual
   diagnostic codes when the backtest itself cannot run. *)
let validate_cmd =
  let golden_arg =
    Arg.(
      value
      & opt string (Filename.concat "test" "golden")
      & info [ "golden" ] ~docv:"DIR" ~doc:"Golden corpus directory.")
  in
  let bless_flag =
    Arg.(
      value & flag
      & info [ "bless" ]
          ~doc:
            "Write (overwrite) the golden files from this run instead of comparing against            them.  Review the diff before committing.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the machine-readable JSON report instead of text.")
  in
  let epsilon_arg =
    Arg.(
      value
      & opt float Estima_validate.Golden.default_epsilon
      & info [ "epsilon" ] ~docv:"E"
          ~doc:
            "Tolerance on error statistics (absolute, on relative-error fractions).  Verdicts,            stop points and the confusion matrix must always match exactly.")
  in
  let only_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Validate only these corpus workloads (default: the full corpus).")
  in
  let no_differential_flag =
    Arg.(
      value & flag
      & info [ "no-differential" ]
          ~doc:"Skip the CLI/Api/server byte-identity differential (golden comparison only).")
  in
  let work_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "work-dir" ] ~docv:"DIR"
          ~doc:"Existing directory for the differential's CSV inputs (default: a fresh temp dir).")
  in
  let cli_bin_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cli-bin" ] ~docv:"PATH" ~doc:"estima_cli binary for the differential.")
  in
  let serve_bin_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "serve-bin" ] ~docv:"PATH" ~doc:"estima_serve binary for the differential.")
  in
  let perturb_flag =
    Arg.(
      value & flag
      & info [ "perturb" ]
          ~doc:
            "DEV ONLY.  Skew every fit kernel before backtesting, to demonstrate that the gate            fails when the engine regresses.  Never bless a perturbed run.")
  in
  let calibration_flag =
    Arg.(
      value & flag
      & info [ "calibration" ]
          ~doc:
            "Also score the bootstrap confidence bands: the fraction of held-out ground-truth            points inside each workload's 90% band must reach the calibration threshold in            aggregate, or the gate fails.")
  in
  let calibration_resamples_arg =
    Arg.(
      value
      & opt int Estima_validate.Calibration.default_resamples
      & info [ "calibration-resamples" ] ~docv:"N"
          ~doc:"Bootstrap resamples per workload for $(b,--calibration).")
  in
  let perturb_calibration_flag =
    Arg.(
      value & flag
      & info [ "perturb-calibration" ]
          ~doc:
            "DEV ONLY.  Shrink the bootstrap residuals so the bands are deliberately            overconfident, to demonstrate that the calibration check fails when the bands            are mis-calibrated.  Implies $(b,--calibration).")
  in
  let run golden bless json epsilon only no_differential work_dir cli_bin serve_bin perturb
      calibration calibration_resamples perturb_calibration jobs store =
    apply_jobs jobs;
    apply_store store;
    let options =
      {
        (Estima_validate.Gate.default_options ~golden_dir:golden) with
        Estima_validate.Gate.bless;
        epsilon;
        names = (match only with [] -> Estima_validate.Corpus.default_names | names -> names);
        differential = not no_differential;
        work_dir;
        cli_bin;
        serve_bin;
        perturb;
        calibration;
        calibration_resamples;
        perturb_calibration;
      }
    in
    match Estima_validate.Gate.run options with
    | Error d -> fail_diag d
    | Ok outcome ->
        if json then
          print_string
            (Estima_json.Json.pretty (Estima_validate.Gate.json_of_outcome outcome))
        else print_string (Estima_validate.Gate.render_text outcome);
        if not outcome.Estima_validate.Gate.passed then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Backtest the validation corpus against held-out ground truth, compare the accuracy          reports with the golden snapshots under test/golden/, and prove estima_cli,          Estima.Api and estima_serve byte-identical.  Exits 1 when the gate fails.")
    Term.(
      const run $ golden_arg $ bless_flag $ json_flag $ epsilon_arg $ only_arg
      $ no_differential_flag $ work_dir_arg $ cli_bin_arg $ serve_bin_arg $ perturb_flag
      $ calibration_flag $ calibration_resamples_arg $ perturb_calibration_flag
      $ jobs_arg $ store_arg)

(* ---------------------------- repro ------------------------------- *)

let repro_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (all if omitted).") in
  let run ids jobs store =
    apply_jobs jobs;
    apply_store store;
    match ids with
    | [] -> Estima_repro.All.run_all ()
    | ids ->
        (* Resolve every id before running anything, then fan the subset
           out like run_all does. *)
        let entries =
          List.map
            (fun id ->
              match Estima_repro.All.find id with
              | Some run -> (id, run)
              | None ->
                  prerr_endline
                    (Printf.sprintf "unknown experiment %S; valid ids: %s" id
                       (String.concat ", " (List.map fst Estima_repro.All.experiments)));
                  exit 1)
            ids
        in
        Estima_repro.All.run_many entries
  in
  Cmd.v (Cmd.info "repro" ~doc:"Run paper experiments (see `estima_cli list` for ids).")
    Term.(const run $ ids $ jobs_arg $ store_arg)

(* ---------------------------- store ------------------------------- *)

(* Maintenance of the on-disk measurement store.  Every action needs a
   directory (--store or ESTIMA_STORE): the memory tier is per-process,
   so there is nothing for a fresh CLI invocation to inspect. *)
let store_cmd =
  let action_arg =
    let actions = Arg.enum [ ("stats", `Stats); ("clear", `Clear); ("warm", `Warm) ] in
    Arg.(
      required
      & pos 0 (some actions) None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,stats) lists the entries; $(b,clear) deletes them; $(b,warm) pre-collects the            validation corpus (measurements and ground-truth sweeps) so later $(b,validate),            $(b,repro) and $(b,predict) runs read instead of simulating.")
  in
  let warm_names_arg =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"For $(b,warm): restrict to these corpus workloads (default: the full corpus).")
  in
  let run action names jobs store =
    apply_jobs jobs;
    apply_store store;
    let store = Estima_store.Store.default () in
    let dir =
      match Estima_store.Store.dir store with
      | Some dir -> dir
      | None ->
          prerr_endline "estima_cli store: no store directory; pass --store DIR or set ESTIMA_STORE";
          exit 2
    in
    match action with
    | `Stats ->
        let entries = Estima_store.Store.disk_entries store in
        let bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 entries in
        Printf.printf "store %s: %d entries, %d bytes\n" dir (List.length entries) bytes;
        List.iter (fun (fp, b) -> Printf.printf "  %s %8d\n" fp b) entries
    | `Clear -> Printf.printf "store %s: removed %d entries\n" dir (Estima_store.Store.clear_disk store)
    | `Warm ->
        let specs =
          match names with
          | [] -> Estima_validate.Corpus.default
          | names -> (
              match Estima_validate.Corpus.of_names names with
              | Ok specs -> specs
              | Error e ->
                  prerr_endline ("estima_cli store warm: " ^ e);
                  exit 2)
        in
        (* Corpus.source materialises both series of each workload through
           the store, which persists them; the sources themselves are
           discarded.  Fanned out so --jobs/ESTIMA_JOBS applies. *)
        ignore
          (Estima_par.Fanout.map (Array.of_list specs) ~f:(fun spec ->
               ignore (Estima_validate.Corpus.source spec)));
        let s = Estima_store.Store.stats store in
        Printf.printf "store %s: warmed %d workloads (%d collected, %d already present)\n" dir
          (List.length specs) s.Estima_store.Store.misses s.Estima_store.Store.hits
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:
         "Inspect, clear or pre-populate the on-disk measurement store (--store DIR or          ESTIMA_STORE).")
    Term.(const run $ action_arg $ warm_names_arg $ jobs_arg $ store_arg)

let () =
  let doc = "extrapolating scalability of in-memory applications" in
  let info = Cmd.info "estima_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            collect_cmd;
            predict_cmd;
            compare_cmd;
            bottleneck_cmd;
            validate_cmd;
            repro_cmd;
            store_cmd;
          ]))
