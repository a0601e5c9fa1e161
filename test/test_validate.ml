(* Tests for the accuracy backtesting subsystem (Estima_validate):

   - the Report JSON codec round-trips bit-exactly and rejects damage;
   - Golden comparison honours its tolerance contract (discrete fields
     exact, error statistics within epsilon, missing files a mismatch);
   - a live subset backtest of the simulated corpus reproduces the
     blessed golden files under test/golden/ and upholds the paper's
     "never predicts scaling when the app does not" invariant;
   - the CLI / Api / server differential proves the three surfaces
     byte-identical under sequential and parallel fit search;
   - a deliberately perturbed engine makes the gate FAIL against the
     honest golden corpus — the gate detects regressions, not just
     noise. *)

open Estima_validate

let quality_verdict = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Report.verdict_to_json_string v)) ( = )

(* A synthetic report with deliberately awkward floats: golden files
   must survive values that stress %.17g round-tripping. *)
let synthetic_protocol =
  {
    Report.machine = "opteron48";
    sockets = Some 1;
    target = "opteron48";
    window = 12;
    target_max = 48;
    seed = 42;
    repetitions = 5;
    include_software = false;
  }

let synthetic_report =
  {
    Report.workload = "synthetic";
    family = "stamp";
    protocol = synthetic_protocol;
    errors = { Report.max_error = 0.1 +. 0.2; mean_error = 1.0 /. 3.0; std_error = 4.9e-324 };
    per_point = [ (13, 0.0625); (14, 0.1 +. 0.2); (48, 1e-17) ];
    predicted_verdict = Estima.Diag.Quality.Stops_at 22;
    measured_verdict = Estima.Diag.Quality.Stops_at 20;
    verdict_agrees = true;
    stop_delta = Some 2;
  }

let synthetic_summary =
  Report.summarize
    [
      synthetic_report;
      {
        synthetic_report with
        Report.workload = "other";
        errors = { Report.max_error = 0.5; mean_error = 0.25; std_error = 0.125 };
        predicted_verdict = Estima.Diag.Quality.Scales;
        measured_verdict = Estima.Diag.Quality.Scales;
        stop_delta = None;
      };
    ]

let test_verdict_strings () =
  let open Estima.Diag.Quality in
  List.iter
    (fun (v, s) ->
      Alcotest.(check string) "to" s (Report.verdict_to_json_string v);
      match Report.verdict_of_json_string s with
      | Ok back -> Alcotest.check quality_verdict "back" v back
      | Error e -> Alcotest.fail e)
    [ (Scales, "scales"); (Stops_at 7, "stops@7"); (Stops_at 48, "stops@48") ];
  List.iter
    (fun bad ->
      match Report.verdict_of_json_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "stops@"; "stops@x"; "climbs"; "stops@-3" ]

let test_report_roundtrip () =
  (match Report.of_json (Report.to_json synthetic_report) with
  | Ok back -> Alcotest.(check bool) "report round-trips bit-exactly" true (back = synthetic_report)
  | Error e -> Alcotest.fail e);
  match Report.summary_of_json (Report.summary_to_json synthetic_summary) with
  | Ok back -> Alcotest.(check bool) "summary round-trips" true (back = synthetic_summary)
  | Error e -> Alcotest.fail e

let test_report_rejects_damage () =
  let reject json = match Report.of_json json with Ok _ -> Alcotest.fail "accepted damaged report" | Error _ -> () in
  let open Estima_json.Json in
  reject Null;
  reject (Obj [ ("schema", Int 999) ]);
  (* Drop one required member. *)
  (match Report.to_json synthetic_report with
  | Obj members -> reject (Obj (List.remove_assoc "errors" members))
  | _ -> Alcotest.fail "report JSON is not an object");
  (* Pretty text re-parses to the same document. *)
  match parse (pretty (Report.to_json synthetic_report)) with
  | Ok json -> (
      match Report.of_json json with
      | Ok back -> Alcotest.(check bool) "pretty re-parses" true (back = synthetic_report)
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

let test_golden_tolerance () =
  let golden = synthetic_report in
  let check_mismatches msg expected fresh =
    Alcotest.(check int) msg expected (List.length (Golden.compare_report ~golden fresh))
  in
  check_mismatches "identical report matches" 0 golden;
  let nudge e =
    { golden with Report.errors = { golden.Report.errors with Report.max_error = golden.Report.errors.Report.max_error +. e } }
  in
  check_mismatches "error drift within epsilon passes" 0 (nudge 0.005);
  check_mismatches "error drift beyond epsilon fails" 1 (nudge 0.02);
  Alcotest.(check int) "tight epsilon rejects the same drift" 1
    (List.length (Golden.compare_report ~epsilon:0.001 ~golden (nudge 0.005)));
  check_mismatches "verdict flip fails exactly" 1
    { golden with Report.predicted_verdict = Estima.Diag.Quality.Scales };
  check_mismatches "protocol drift fails" 1
    { golden with Report.protocol = { golden.Report.protocol with Report.window = 10 } };
  (* per_point is informational: a different curve alone is no mismatch. *)
  check_mismatches "per_point never compared" 0 { golden with Report.per_point = [] };
  match Golden.load_report (Golden.workload_file ~dir:"golden" "does-not-exist") with
  | Ok _ -> Alcotest.fail "loaded a missing golden file"
  | Error e ->
      Alcotest.(check bool) "missing file tells the developer to bless" true
        (String.length e > 0)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_first_divergence () =
  let d = Differential.first_divergence "a\nb\nc" "a\nX\nc" in
  Alcotest.(check bool) "names line 2" true (contains ~sub:"2" d)

(* ------------------------------------------------------------------ *)
(* Live backtests against the blessed corpus                           *)
(* ------------------------------------------------------------------ *)

(* Three workloads spanning the corpus's behaviour: the best-case
   scaler, a mid-range stopper and the heavy-tailed yada.  kmeans also
   warms the Lab cache for the differential test below. *)
let subset = [ "kmeans"; "swaptions"; "yada" ]

let run_gate ?(perturb = false) ?(differential = false) ?(calibration = false)
    ?(calibration_resamples = Calibration.default_resamples) ?(perturb_calibration = false) names =
  let options =
    {
      (Gate.default_options ~golden_dir:"golden") with
      Gate.names;
      differential;
      perturb;
      calibration;
      calibration_resamples;
      perturb_calibration;
    }
  in
  match Gate.run options with
  | Ok outcome -> outcome
  | Error diag -> Alcotest.failf "gate could not run: %s" (Estima.Diag.render diag)

let test_subset_matches_golden () =
  let outcome = run_gate subset in
  Alcotest.(check bool) "subset flagged" true outcome.Gate.subset;
  Alcotest.(check (list string)) "no golden mismatches" [] outcome.Gate.golden_mismatches;
  Alcotest.(check bool) "differential skipped" false outcome.Gate.differential_ran;
  Alcotest.(check bool) "gate passes" true outcome.Gate.passed;
  (* The T4 invariant on the fresh reports themselves. *)
  let summary = outcome.Gate.summary in
  Alcotest.(check int) "no scales/stops confusion" 0 summary.Report.confusion.Report.scales_stops;
  Alcotest.(check bool) "invariant recorded" true summary.Report.invariant_ok;
  List.iter
    (fun (r : Report.t) ->
      Alcotest.(check bool)
        (r.Report.workload ^ ": errors are fractions") true
        (r.Report.errors.Report.max_error >= 0.0 && r.Report.errors.Report.max_error < 10.0);
      Alcotest.(check int) (r.Report.workload ^ ": held-out points") (48 - 12)
        (List.length r.Report.per_point))
    outcome.Gate.reports

let test_blessed_summary_upholds_invariant () =
  (* The committed full-corpus summary must itself record a clean
     confusion matrix: the paper's claim, checked into the tree. *)
  match Golden.load_summary (Golden.summary_file ~dir:"golden") with
  | Error e -> Alcotest.fail e
  | Ok summary ->
      Alcotest.(check bool) "blessed invariant" true summary.Report.invariant_ok;
      Alcotest.(check int) "blessed scales_stops cell" 0 summary.Report.confusion.Report.scales_stops;
      Alcotest.(check int) "full corpus blessed" 8 (List.length summary.Report.workloads);
      Alcotest.(check string) "worst workload is the paper's" "streamcluster" summary.Report.worst_workload

let test_differential_byte_identity () =
  let specs =
    match Corpus.of_names [ "kmeans" ] with
    | Ok specs -> specs
    | Error e -> Alcotest.fail e
  in
  let sources = List.map Corpus.source specs in
  let dir = Filename.temp_file "estima_diff_" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  match Differential.run ~dir sources with
  | Error mismatches -> Alcotest.failf "surfaces diverged:\n%s" (String.concat "\n" mismatches)
  | Ok observations ->
      Alcotest.(check int) "one workload x two jobs settings" 2 (List.length observations);
      List.iter
        (fun (o : Differential.observation) ->
          Alcotest.(check bool) "non-empty" true (String.length o.Differential.api > 0);
          Alcotest.(check string) "cli = api" o.Differential.api o.Differential.cli;
          Alcotest.(check string) "server = api" o.Differential.api o.Differential.server)
        observations;
      (* Same prediction text under jobs 1 and 4: determinism across
         parallel fit search. *)
      (match observations with
      | [ a; b ] -> Alcotest.(check string) "jobs-independent" a.Differential.api b.Differential.api
      | _ -> ())

let test_perturbed_engine_fails_gate () =
  (* Skew every kernel's evaluation by a factor growing with the core
     count and re-run the same subset against the honest golden files:
     the gate must fail loudly.  This is the proof the gate would catch
     a real engine regression. *)
  let outcome = run_gate ~perturb:true subset in
  Alcotest.(check bool) "perturbed gate fails" false outcome.Gate.passed;
  Alcotest.(check bool) "with explicit mismatches" true (outcome.Gate.golden_mismatches <> [])

(* A perturbed kernel carries its own objective, so the skew must reach
   the fit and not only the extrapolation: fitted to the same series, the
   skewed Rat22 settles on other coefficients than the honest one. *)
let test_perturbed_kernels_fit_the_skewed_model () =
  let module Kernel = Estima_kernels.Kernel in
  let module Fit = Estima_kernels.Fit in
  let xs = [| 1.0; 2.0; 4.0; 6.0; 8.0; 12.0; 16.0; 24.0 |] in
  let ys = [| 0.9; 1.7; 3.1; 4.6; 5.6; 8.9; 10.2; 17.5 |] in
  let skewed = List.find (fun k -> k.Kernel.name = "Rat22") (Gate.perturbed_kernels ()) in
  match (Fit.fit Estima_kernels.Rational.rat22 ~xs ~ys, Fit.fit skewed ~xs ~ys) with
  | Some honest, Some skewed ->
      if Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) honest.Fit.params
           skewed.Fit.params
      then Alcotest.fail "the skewed Rat22 fitted the honest coefficients"
  | _ -> Alcotest.fail "Rat22 did not fit"

let test_calibration_passes_on_honest_bands () =
  (* Honest bootstrap bands over the held-out region must cover at
     least the blessed fraction of the truth — the tentpole's
     quantitative acceptance criterion, on a subset for test speed. *)
  let outcome = run_gate ~calibration:true ~calibration_resamples:30 subset in
  match outcome.Gate.calibration with
  | None -> Alcotest.fail "calibration requested but not run"
  | Some c ->
      Alcotest.(check bool) "gate passes" true outcome.Gate.passed;
      Alcotest.(check bool) "coverage above threshold" true c.Calibration.passed;
      Alcotest.(check int) "three workloads scored" 3 (List.length c.Calibration.workloads);
      Alcotest.(check int) "held-out points" (3 * (48 - 12)) c.Calibration.held_out;
      List.iter
        (fun (w : Calibration.workload) ->
          if w.Calibration.coverage < 0.0 || w.Calibration.coverage > 1.0 then
            Alcotest.failf "%s: coverage %g outside [0,1]" w.Calibration.name
              w.Calibration.coverage)
        c.Calibration.workloads

let test_miscalibrated_bands_fail_gate () =
  (* Collapse the resampled residuals so the bands become implausibly
     narrow: coverage must crater and the gate must FAIL.  This is the
     CI must-fail step, in-process. *)
  let outcome = run_gate ~perturb_calibration:true ~calibration_resamples:30 subset in
  Alcotest.(check bool) "miscalibrated gate fails" false outcome.Gate.passed;
  match outcome.Gate.calibration with
  | None -> Alcotest.fail "perturb_calibration should force a calibration run"
  | Some c ->
      Alcotest.(check bool) "coverage below threshold" false c.Calibration.passed;
      Alcotest.(check bool) "strictly worse than the blessed threshold" true
        (c.Calibration.coverage < c.Calibration.threshold)

let suite =
  [
    ("verdict <-> json strings", `Quick, test_verdict_strings);
    ("report and summary JSON round-trip", `Quick, test_report_roundtrip);
    ("report decoder rejects damage", `Quick, test_report_rejects_damage);
    ("golden comparison tolerance contract", `Quick, test_golden_tolerance);
    ("first_divergence names the line", `Quick, test_first_divergence);
    ("subset backtest matches blessed golden", `Slow, test_subset_matches_golden);
    ("blessed summary upholds the T4 invariant", `Quick, test_blessed_summary_upholds_invariant);
    ("cli/api/server differential at jobs 1 and 4", `Slow, test_differential_byte_identity);
    ("perturbed kernels fit the skewed model", `Quick, test_perturbed_kernels_fit_the_skewed_model);
    ("perturbed engine fails the gate", `Slow, test_perturbed_engine_fails_gate);
    ("calibration passes on honest bands", `Slow, test_calibration_passes_on_honest_bands);
    ("miscalibrated bands fail the gate", `Slow, test_miscalibrated_bands_fail_gate);
  ]
