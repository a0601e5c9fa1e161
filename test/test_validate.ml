(* Tests for the accuracy backtesting subsystem (Estima_validate):

   - a blessed report reads back as the bytes it was written from, and
     the golden diff flags a damaged file by the member it names;
   - the golden diff honours its tolerance contract (numbers within
     0.01, per_point informational, everything else exact, missing files
     a mismatch);
   - a live subset backtest of the simulated corpus reproduces the
     blessed golden files under test/golden/ and upholds the paper's
     "never predicts scaling when the app does not" invariant;
   - the CLI / Api / server differential proves the three surfaces
     byte-identical under sequential and parallel fit search;
   - a deliberately perturbed engine makes the gate FAIL against the
     honest golden corpus — the gate detects regressions, not just
     noise. *)

open Estima_validate

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

module Json = Estima_json.Json

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* A fresh scratch directory for golden files written by a test. *)
let scratch_dir () =
  let dir = Filename.temp_file "estima_golden_" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* What the diff reads: the document as a golden file stores it. *)
let as_golden json =
  match Json.parse (Json.pretty json) with Ok golden -> golden | Error e -> Alcotest.fail e

let check_one_mismatch msg ~path lines =
  match lines with
  | [ line ] ->
      if not (String.starts_with ~prefix:(path ^ ": ") line) then
        Alcotest.failf "%s: %S does not name %s" msg line path
  | lines ->
      Alcotest.failf "%s: want one mismatch at %s, got [%s]" msg path (String.concat "; " lines)

(* A verdict as the report's JSON stores it. *)
let verdict_string v =
  match Json.member "measured_verdict" (Report.to_json { synthetic_report with Report.measured_verdict = v }) with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail "measured_verdict is not a string"

let test_verdict_strings () =
  let open Estima.Diag.Quality in
  List.iter
    (fun (v, s) -> Alcotest.(check string) "to" s (verdict_string v))
    [ (Scales, "scales"); (Stops_at 7, "stops@7"); (Stops_at 48, "stops@48") ];
  (* A verdict is a string in the golden file, compared exactly: a stop
     point one core away is as much a mismatch as a flip to "scales". *)
  let golden = as_golden (Report.to_json synthetic_report) in
  Alcotest.(check (list string)) "same verdict" []
    (Golden.diff ~golden (Report.to_json synthetic_report));
  List.iter
    (fun v ->
      let fresh = { synthetic_report with Report.measured_verdict = v } in
      check_one_mismatch (verdict_string v) ~path:"measured_verdict"
        (Golden.diff ~golden (Report.to_json fresh)))
    [ Scales; Stops_at 19; Stops_at 21 ];
  (* A golden file whose verdict is no verdict string matches nothing. *)
  List.iter
    (fun bad ->
      match golden with
      | Json.Obj members ->
          let damaged =
            Json.Obj
              (List.map
                 (fun (k, v) -> if k = "measured_verdict" then (k, Json.String bad) else (k, v))
                 members)
          in
          check_one_mismatch bad ~path:"measured_verdict"
            (Golden.diff ~golden:damaged (Report.to_json synthetic_report))
      | _ -> Alcotest.fail "report JSON is not an object")
    [ ""; "stops@"; "stops@x"; "climbs"; "stops@-3" ]

let test_report_roundtrip () =
  let dir = scratch_dir () in
  let paths = Golden.bless ~dir [ synthetic_report ] synthetic_summary in
  Alcotest.(check int) "one report and the summary" 2 (List.length paths);
  List.iter2
    (fun path fresh ->
      match Golden.load path with
      | Error e -> Alcotest.fail e
      | Ok golden ->
          Alcotest.(check (list string)) (path ^ ": diff is empty") [] (Golden.diff ~golden fresh);
          (* Bit-exact: the parsed file prints back to the bytes written. *)
          Alcotest.(check string) (path ^ ": reads back bit-exactly") (Json.pretty fresh)
            (Json.pretty golden))
    paths
    [ Report.to_json synthetic_report; Report.summary_to_json synthetic_summary ];
  Alcotest.(check (list string)) "compare_run agrees" []
    (Golden.compare_run ~dir [ synthetic_report ] (Some synthetic_summary));
  List.iter Sys.remove paths;
  Sys.rmdir dir

let test_report_rejects_damage () =
  let dir = scratch_dir () in
  let path = Golden.workload_file ~dir synthetic_report.Report.workload in
  let fresh = Report.to_json synthetic_report in
  let mismatches contents =
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    Golden.compare_run ~dir [ synthetic_report ] None
  in
  let names_member what ~member contents =
    let lines = mismatches contents in
    if
      not
        (List.exists
           (String.starts_with ~prefix:(Printf.sprintf "synthetic: %s: " member))
           lines)
    then Alcotest.failf "%s: no mismatch names %s in [%s]" what member (String.concat "; " lines)
  in
  Alcotest.(check bool) "null is a mismatch" true (mismatches "null" <> []);
  names_member "schema 999" ~member:"schema" {|{"schema": 999}|};
  names_member "schema 999" ~member:"errors" {|{"schema": 999}|};
  (match fresh with
  | Json.Obj members ->
      names_member "errors removed" ~member:"errors"
        (Json.pretty (Json.Obj (List.remove_assoc "errors" members)));
      names_member "a member the report lacks" ~member:"extra"
        (Json.pretty (Json.Obj (members @ [ ("extra", Json.Int 1) ])))
  | _ -> Alcotest.fail "report JSON is not an object");
  Alcotest.(check bool) "unparseable text is a mismatch naming the file" true
    (List.exists (String.starts_with ~prefix:("synthetic: " ^ path)) (mismatches "{"));
  (* The undamaged file passes. *)
  Alcotest.(check (list string)) "pretty text passes" [] (mismatches (Json.pretty fresh));
  Sys.remove path;
  Sys.rmdir dir

let test_golden_tolerance () =
  let golden = as_golden (Report.to_json synthetic_report) in
  let diff fresh = Golden.diff ~golden (Report.to_json fresh) in
  Alcotest.(check (list string)) "identical report matches" [] (diff synthetic_report);
  let nudge e =
    {
      synthetic_report with
      Report.errors =
        {
          synthetic_report.Report.errors with
          Report.max_error = synthetic_report.Report.errors.Report.max_error +. e;
        };
    }
  in
  Alcotest.(check (list string)) "error drift within 0.01 passes" [] (diff (nudge 0.005));
  check_one_mismatch "error drift beyond 0.01" ~path:"errors.max" (diff (nudge 0.02));
  check_one_mismatch "verdict flip" ~path:"predicted_verdict"
    (diff { synthetic_report with Report.predicted_verdict = Estima.Diag.Quality.Scales });
  check_one_mismatch "protocol drift" ~path:"protocol.window"
    (diff
       {
         synthetic_report with
         Report.protocol = { synthetic_report.Report.protocol with Report.window = 10 };
       });
  check_one_mismatch "protocol machine" ~path:"protocol.machine"
    (diff
       {
         synthetic_report with
         Report.protocol = { synthetic_report.Report.protocol with Report.machine = "xeon48" };
       });
  (* per_point is informational: a different curve alone is no mismatch. *)
  Alcotest.(check (list string)) "per_point never compared" []
    (diff { synthetic_report with Report.per_point = [] });
  (* An integral float prints, and so reads back, as an integer. *)
  let whole =
    {
      synthetic_report with
      Report.errors = { Report.max_error = 1.0; mean_error = 0.0; std_error = 0.0 };
    }
  in
  Alcotest.(check (list string)) "integral floats agree with their integers" []
    (Golden.diff ~golden:(as_golden (Report.to_json whole)) (Report.to_json whole));
  match Golden.load (Golden.workload_file ~dir:"golden" "does-not-exist") with
  | Ok _ -> Alcotest.fail "loaded a missing golden file"
  | Error e ->
      Alcotest.(check bool) "missing file tells the developer to bless" true
        (contains ~sub:"--bless" e)

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
  match Golden.load (Golden.summary_file ~dir:"golden") with
  | Error e -> Alcotest.fail e
  | Ok summary ->
      let at path =
        List.fold_left (fun json key -> Option.bind json (Json.member key)) (Some summary) path
      in
      Alcotest.(check (option bool)) "blessed invariant" (Some true)
        (Option.bind (at [ "invariant_ok" ]) Json.to_bool_opt);
      Alcotest.(check (option int)) "blessed scales_stops cell" (Some 0)
        (Option.bind (at [ "confusion"; "scales_stops" ]) Json.to_int_opt);
      Alcotest.(check (option int)) "full corpus blessed" (Some 8)
        (Option.map List.length (Option.bind (at [ "workloads" ]) Json.to_list_opt));
      Alcotest.(check (option string)) "worst workload is the paper's" (Some "streamcluster")
        (Option.bind (at [ "worst_workload" ]) Json.to_string_opt)

let test_differential_byte_identity () =
  let specs =
    match Corpus.of_names [ "kmeans" ] with
    | Ok specs -> specs
    | Error e -> Alcotest.fail e
  in
  let sources = List.map Corpus.source specs in
  match Differential.run sources with
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

(* The differential writes its CSV inputs under the temporary directory,
   in estima_validate_<pid>_*, and removes them when it returns. *)
let test_gate_leaves_no_work_dir () =
  let outcome = run_gate ~differential:true [ "kmeans" ] in
  Alcotest.(check bool) "differential ran" true outcome.Gate.differential_ran;
  Alcotest.(check (list string)) "surfaces agree" [] outcome.Gate.differential_mismatches;
  let prefix = Printf.sprintf "estima_validate_%d_" (Unix.getpid ()) in
  let left =
    List.filter (String.starts_with ~prefix)
      (Array.to_list (Sys.readdir (Filename.get_temp_dir_name ())))
  in
  Alcotest.(check (list string)) "no work directory left behind" [] left

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
    ("validate removes the differential's work directory", `Slow, test_gate_leaves_no_work_dir);
  ]
