(* Tests for the structured diagnostics layer and external measurement
   ingestion: Diag rendering, labels and exit codes; every typed cause
   reachable through a public pipeline entry point; the CSV round-trip
   guarantee of Series_io; and report-file scanning edge cases. *)

open Estima_machine
open Estima_workloads
open Estima_counters
open Estima

let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let check_contains what ~sub s =
  Alcotest.(check bool) (Printf.sprintf "%s: %S mentions %S" what s sub) true (contains ~sub s)

(* ------------------------------------------------------------------ *)
(* Diag basics                                                         *)
(* ------------------------------------------------------------------ *)

let every_cause =
  [
    (Diag.Parse_error { file = "f.csv"; line = 3; msg = "bad cell" }, "parse-error", 2);
    (Diag.Short_series { points = 1; needed = 2 }, "short-series", 2);
    (Diag.Mismatched_lengths { what = "ys"; expected = 4; got = 3 }, "mismatched-lengths", 2);
    (Diag.Missing_category { category = "0D2h"; threads = 5 }, "missing-category", 2);
    (Diag.Bad_config { what = "checkpoints = 0" }, "bad-config", 2);
    (Diag.Bad_value { what = "frequency_scale"; value = -1.0 }, "bad-value", 2);
    (Diag.Target_below_window { target = 4; window = 12 }, "target-below-window", 2);
    (Diag.No_realistic_fit { window = 12 }, "no-realistic-fit", 3);
    (Diag.Overloaded { pending = 64; capacity = 64 }, "overloaded", 4);
    (Diag.Deadline_exceeded { waited_ms = 120; timeout_ms = 100 }, "deadline-exceeded", 4);
    (Diag.Frame_too_large { buffered = 1 lsl 20; limit = 1 lsl 20 }, "frame-too-large", 2);
    (Diag.Internal_error { exn = "Failure(\"boom\")"; backtrace = "Raised at f" }, "internal", 5);
  ]

let test_labels_and_exit_codes () =
  List.iter
    (fun (cause, label, code) ->
      let d = Diag.make ~stage:Diag.Collect ~subject:"s" cause in
      Alcotest.(check string) "label" label (Diag.cause_label cause);
      Alcotest.(check int) (label ^ " exit code") code (Diag.exit_code d))
    every_cause;
  List.iter
    (fun (stage, label) -> Alcotest.(check string) "stage label" label (Diag.stage_label stage))
    [
      (Diag.Collect, "collect");
      (Diag.Extrapolate, "extrapolate");
      (Diag.Translate, "translate");
      (Diag.Serve, "serve");
    ]

let test_render_format () =
  let d =
    Diag.make ~stage:Diag.Collect ~subject:"input.csv"
      (Diag.Parse_error { file = "input.csv"; line = 3; msg = "bad cell" })
  in
  Alcotest.(check string) "render" "estima: [collect] input.csv: input.csv:3: bad cell"
    (Diag.render d);
  (* Every cause renders with the stage tag and the subject up front. *)
  List.iter
    (fun (cause, label, _) ->
      let rendered = Diag.render (Diag.make ~stage:Diag.Extrapolate ~subject:"genome" cause) in
      check_contains label ~sub:"estima: [extrapolate] genome: " rendered)
    every_cause

(* ------------------------------------------------------------------ *)
(* Every cause through a public entry point                            *)
(* ------------------------------------------------------------------ *)

let cause_of what = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error d -> d

(* Satellite: the "no realistic fit" diagnostic must name the workload
   and the measured window.  Uniformly negative times defeat even the
   constant-mean last resort under the non-negativity requirement. *)
let test_no_fit_names_workload_and_window () =
  let threads = [| 1.0; 2.0; 3.0 |] and times = [| -1.0; -1.0; -1.0 |] in
  let d =
    cause_of "negative series"
      (Time_extrapolation.predict ~subject:"genome" ~threads ~times ~target_max:48 ())
  in
  Alcotest.(check string) "typed cause" "no-realistic-fit" (Diag.cause_label d.Diag.cause);
  Alcotest.(check int) "exit code 3" 3 (Diag.exit_code d);
  let msg = Diag.render d in
  check_contains "workload named" ~sub:"genome" msg;
  check_contains "window named" ~sub:"3 cores" msg

let test_short_series_cause () =
  let d = cause_of "empty" (Time_extrapolation.predict ~threads:[||] ~times:[||] ~target_max:8 ()) in
  Alcotest.(check string) "cause" "short-series" (Diag.cause_label d.Diag.cause)

let test_mismatched_lengths_cause () =
  let d =
    cause_of "ragged"
      (Approximation.approximate ~xs:[| 1.0; 2.0; 3.0 |] ~ys:[| 1.0 |] ~target_max:8.0
         ~require_nonnegative:false ())
  in
  Alcotest.(check string) "cause" "mismatched-lengths" (Diag.cause_label d.Diag.cause);
  check_contains "sizes in message" ~sub:"expected 3" (Diag.render d)

let test_bad_value_cause () =
  let threads = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let times = Array.map (fun n -> 1.0 /. n) threads in
  let d =
    cause_of "zero frequency scale"
      (Time_extrapolation.predict ~threads ~times ~target_max:16 ~frequency_scale:0.0 ())
  in
  Alcotest.(check string) "cause" "bad-value" (Diag.cause_label d.Diag.cause);
  check_contains "names the knob" ~sub:"frequency_scale" (Diag.render d)

(* A finite time whose square overflows (data/overflow.csv: kmeans with
   the 6-core time set to 1e200) used to print "corr nan" and exit 0;
   every Api entry point must now return the typed Bad_value, naming the
   column and the core count. *)
let test_overflowing_value_cause () =
  let series =
    match Api.load_series ~machine:opteron1s "data/overflow.csv" with
    | Ok s -> s
    | Error d -> Alcotest.failf "ingest: %s" (Diag.render d)
  in
  let check what = function
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error d ->
        Alcotest.(check string) (what ^ ": cause") "bad-value" (Diag.cause_label d.Diag.cause);
        Alcotest.(check string) (what ^ ": stage") "collect" (Diag.stage_label d.Diag.stage);
        check_contains what ~sub:"time_seconds at 6 cores" (Diag.render d)
  in
  check "predict" (Api.predict ~series ~target_max:48 ());
  check "predict_traced"
    (fst (Api.predict_traced ~config:(Config.make ~trace:Config.Text ()) ~series ~target_max:48 ()));
  check "predict_with_confidence" (Api.predict_with_confidence ~resamples:2 ~series ~target_max:48 ())

let test_target_below_window_cause () =
  let threads = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let times = Array.map (fun n -> 1.0 /. n) threads in
  let d =
    cause_of "target inside window"
      (Time_extrapolation.predict ~threads ~times ~target_max:4 ())
  in
  Alcotest.(check string) "cause" "target-below-window" (Diag.cause_label d.Diag.cause);
  check_contains "window in message" ~sub:"8" (Diag.render d)

let test_failures_emit_trace_diagnostics () =
  (* Under --trace, a failing stage leaves a Diagnostic event in the
     recorder, so the audit shows why the pipeline stopped. *)
  let threads = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let times = Array.map (fun n -> 1.0 /. n) threads in
  let recorder = Estima_obs.Recorder.create () in
  let result =
    Estima_obs.Recorder.record recorder (fun () ->
        Time_extrapolation.predict ~subject:"svc" ~threads ~times ~target_max:4 ())
  in
  (match result with
  | Ok _ -> Alcotest.fail "target below window accepted"
  | Error _ -> ());
  let diagnostic =
    List.find_map
      (fun e ->
        match e.Estima_obs.Trace.payload with
        | Estima_obs.Trace.Diagnostic { stage; subject; cause; _ } -> Some (stage, subject, cause)
        | _ -> None)
      (Estima_obs.Recorder.events recorder)
  in
  match diagnostic with
  | None -> Alcotest.fail "no Diagnostic event recorded for the failure"
  | Some (stage, subject, cause) ->
      Alcotest.(check string) "stage" "translate" stage;
      Alcotest.(check string) "subject" "svc" subject;
      Alcotest.(check string) "cause" "target-below-window" cause

(* ------------------------------------------------------------------ *)
(* Ingestion: CSV parsing                                               *)
(* ------------------------------------------------------------------ *)

let test_ingest_parse_error_names_line () =
  let csv = "threads,time_seconds\n1,0.5\nnot-a-number,0.6\n" in
  let d =
    cause_of "bad cell"
      (Ingest.series_of_csv ~file:"input.csv" ~machine:opteron1s ~spec_name:"x" csv)
  in
  Alcotest.(check string) "cause" "parse-error" (Diag.cause_label d.Diag.cause);
  Alcotest.(check string) "stage" "collect" (Diag.stage_label d.Diag.stage);
  check_contains "file:line" ~sub:"input.csv:3" (Diag.render d)

let test_ingest_rejects_missing_required_column () =
  let d =
    cause_of "no time column"
      (Ingest.series_of_csv ~machine:opteron1s ~spec_name:"x" "threads,cycles\n1,1e9\n")
  in
  Alcotest.(check string) "cause" "parse-error" (Diag.cause_label d.Diag.cause);
  check_contains "names the column" ~sub:"time_seconds" (Diag.render d)

let test_ingest_unreadable_file () =
  let d =
    cause_of "missing file"
      (Ingest.load_series ~machine:opteron1s ~spec_name:"x" "/nonexistent/estima.csv")
  in
  match d.Diag.cause with
  | Diag.Parse_error { line; _ } -> Alcotest.(check int) "line 0 for whole-file errors" 0 line
  | _ -> Alcotest.fail "unreadable file must be a parse error"

let test_series_io_tolerates_layout_variance () =
  (* Column order, \r\n endings, blank lines and omitted optional columns
     are all fine; defaults fill in cycles, useful_cycles, footprint. *)
  let csv = "time_seconds,threads\r\n0.5,1\r\n\r\n0.3,2\r\n" in
  match Series_io.parse ~machine:opteron1s ~spec_name:"x" csv with
  | Error e -> Alcotest.failf "variant layout rejected: %s" e.Series_io.msg
  | Ok s ->
      Alcotest.(check int) "two samples" 2 (Array.length s.Series.samples);
      let s0 = s.Series.samples.(0) in
      Alcotest.(check int) "threads" 1 s0.Sample.threads;
      let expected_cycles = 0.5 *. opteron1s.Topology.frequency_ghz *. 1e9 in
      Alcotest.(check (float 1e-6)) "cycles default" expected_cycles s0.Sample.cycles;
      Alcotest.(check int) "footprint default" 0 s0.Sample.footprint_lines

let test_csv_round_trip_every_workload () =
  (* The headline ingestion guarantee: parsing what series_to_csv wrote
     reconstructs the series bit-for-bit, for every suite workload. *)
  List.iter
    (fun entry ->
      let name = entry.Suite.spec.Estima_sim.Spec.name in
      let series =
        Collector.collect
          ~options:
            {
              Collector.default_options with
              Collector.seed = 42;
              plugins = entry.Suite.plugins;
              repetitions = 1;
            }
          ~machine:opteron1s ~spec:entry.Suite.spec
          ~thread_counts:(Collector.default_thread_counts ~max:8)
          ()
      in
      let csv = Csv_export.series_to_csv series in
      match Series_io.parse ~machine:opteron1s ~spec_name:series.Series.spec_name csv with
      | Error e -> Alcotest.failf "%s: round-trip parse failed: %s" name e.Series_io.msg
      | Ok reparsed ->
          if reparsed.Series.samples <> series.Series.samples then
            Alcotest.failf "%s: reparsed samples differ" name;
          Alcotest.(check string) (name ^ " csv fixpoint") csv (Csv_export.series_to_csv reparsed))
    Suite.all

(* Satellite: unquotable column names are refused at export time rather
   than silently corrupting the table. *)
let test_csv_rejects_unquotable_column_names () =
  let with_counter name =
    Series.make ~machine:opteron1s ~spec_name:"x"
      [
        {
          Sample.threads = 1;
          time_seconds = 0.5;
          cycles = 1e9;
          counters = [ (name, 1.0) ];
          software = [];
          footprint_lines = 10;
          useful_cycles = 1e6;
        };
      ]
  in
  List.iter
    (fun bad ->
      match Csv_export.series_to_csv (with_counter bad) with
      | _ -> Alcotest.failf "column name %S accepted" bad
      (* The offender appears %S-escaped, so just check the refusal text. *)
      | exception Invalid_argument msg -> check_contains "refusal explained" ~sub:"needs quoting" msg)
    [ "has space"; "has,comma"; "has\"quote"; "has\nnewline" ];
  (* The allowed charset passes. *)
  match Csv_export.series_to_csv (with_counter "OK-name_0.9") with
  | (_ : string) -> ()
  | exception Invalid_argument msg -> Alcotest.failf "valid name rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* Ingestion: report scanning                                          *)
(* ------------------------------------------------------------------ *)

let scan_check what ~expression text expected =
  Alcotest.(check (list (float 1e-9))) what expected (Report_file.scan ~expression text)

let test_scan_marker_at_line_edges () =
  scan_check "%d at line start" ~expression:"%d cycles" "123 cycles" [ 123.0 ];
  scan_check "%d at line end" ~expression:"lost %d" "lost 42" [ 42.0 ];
  scan_check "bare %d" ~expression:"%d" "7 8 9" [ 7.0; 8.0; 9.0 ]

let test_scan_several_matches_per_line () =
  scan_check "three on one line" ~expression:"v=%d" "v=1 v=2 v=3" [ 1.0; 2.0; 3.0 ];
  scan_check "across lines, in order" ~expression:"v=%d" "v=1 noise\nnoise v=2 v=3\n" [ 1.0; 2.0; 3.0 ]

let test_scan_number_formats () =
  scan_check "negative" ~expression:"v=%d" "v=-5" [ -5.0 ];
  scan_check "scientific" ~expression:"v=%d" "v=1e9" [ 1e9 ];
  scan_check "decimal and exponent sign" ~expression:"v=%d" "v=2.5e+3" [ 2500.0 ]

let test_scan_rejects_bad_expressions () =
  List.iter
    (fun expression ->
      match Report_file.scan ~expression "x" with
      | _ -> Alcotest.failf "expression %S accepted" expression
      | exception Invalid_argument _ -> ())
    [ "no marker"; "two %d markers %d" ]

(* ------------------------------------------------------------------ *)
(* Ingestion: attaching software stalls                                *)
(* ------------------------------------------------------------------ *)

let plain_series () =
  Series.make ~machine:opteron1s ~spec_name:"svc"
    (List.map
       (fun threads ->
         {
           Sample.threads;
           time_seconds = 0.1 /. float_of_int threads;
           cycles = 1e9;
           counters = [ ("0D2h", 100.0 *. float_of_int threads) ];
           software = [];
           footprint_lines = 10;
           useful_cycles = 1e6;
         })
       [ 1; 2; 4 ])

let test_attach_software_values_in_order () =
  let report = "# gc report\ngc-cycles 10\ngc-cycles 20\ngc-cycles 40\n" in
  match
    Ingest.attach_software ~name:"gc" ~expression:"gc-cycles %d" ~report (plain_series ())
  with
  | Error d -> Alcotest.failf "attach failed: %s" (Diag.render d)
  | Ok s ->
      Alcotest.(check (list (pair int (float 0.0)))) "one value per sample, in series order"
        [ (1, 10.0); (2, 20.0); (4, 40.0) ]
        (Array.to_list
           (Array.map (fun smp -> (smp.Sample.threads, List.assoc "gc" smp.Sample.software))
              s.Series.samples))

let test_attach_software_error_paths () =
  let series = plain_series () in
  let d =
    cause_of "marker-free expression"
      (Ingest.attach_software ~name:"gc" ~expression:"gc-cycles" ~report:"gc-cycles 1" series)
  in
  Alcotest.(check string) "bad expression" "bad-config" (Diag.cause_label d.Diag.cause);
  let d =
    cause_of "wrong value count"
      (Ingest.attach_software ~name:"gc" ~expression:"gc-cycles %d"
         ~report:"gc-cycles 10\ngc-cycles 20\n" series)
  in
  Alcotest.(check string) "count mismatch" "mismatched-lengths" (Diag.cause_label d.Diag.cause);
  let d =
    cause_of "category collision"
      (Ingest.attach_software ~name:"0D2h" ~expression:"gc-cycles %d"
         ~report:"gc-cycles 10\ngc-cycles 20\ngc-cycles 40\n" series)
  in
  Alcotest.(check string) "duplicate category" "bad-config" (Diag.cause_label d.Diag.cause)

let suite =
  [
    ("cause labels and exit codes", `Quick, test_labels_and_exit_codes);
    ("render format", `Quick, test_render_format);
    ("no-fit names workload and window", `Quick, test_no_fit_names_workload_and_window);
    ("short series cause", `Quick, test_short_series_cause);
    ("mismatched lengths cause", `Quick, test_mismatched_lengths_cause);
    ("bad value cause", `Quick, test_bad_value_cause);
    ("overflowing value cause", `Quick, test_overflowing_value_cause);
    ("target below window cause", `Quick, test_target_below_window_cause);
    ("failures emit trace diagnostics", `Quick, test_failures_emit_trace_diagnostics);
    ("ingest parse error names line", `Quick, test_ingest_parse_error_names_line);
    ("ingest rejects missing required column", `Quick, test_ingest_rejects_missing_required_column);
    ("ingest unreadable file", `Quick, test_ingest_unreadable_file);
    ("series_io tolerates layout variance", `Quick, test_series_io_tolerates_layout_variance);
    ("csv round trip every workload", `Quick, test_csv_round_trip_every_workload);
    ("csv rejects unquotable column names", `Quick, test_csv_rejects_unquotable_column_names);
    ("scan marker at line edges", `Quick, test_scan_marker_at_line_edges);
    ("scan several matches per line", `Quick, test_scan_several_matches_per_line);
    ("scan number formats", `Quick, test_scan_number_formats);
    ("scan rejects bad expressions", `Quick, test_scan_rejects_bad_expressions);
    ("attach software values in order", `Quick, test_attach_software_values_in_order);
    ("attach software error paths", `Quick, test_attach_software_error_paths);
  ]
