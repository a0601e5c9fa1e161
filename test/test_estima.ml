(* Tests for the ESTIMA core pipeline: approximation, extrapolation,
   scaling factor, predictor, baseline, errors, bottlenecks, experiment. *)

open Estima_machine
open Estima_workloads
open Estima_counters
open Estima

let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let entry name = Option.get (Suite.find name)

let collect ?(plugins = []) ?(machine = opteron1s) ?(max = 12) spec =
  Collector.collect
    ~options:{ Collector.default_options with Collector.seed = 42; plugins; repetitions = 3 }
    ~machine ~spec
    ~thread_counts:(Collector.default_thread_counts ~max)
    ()

let ok_or_fail what = function
  | Ok v -> v
  | Error d -> Alcotest.failf "%s: %s" what (Diag.render d)

(* Checks that a pipeline stage refused with the expected typed cause. *)
let expect_cause what expected = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error d -> Alcotest.(check string) what expected (Diag.cause_label d.Diag.cause)

(* ------------------------------------------------------------------ *)
(* Approximation                                                       *)
(* ------------------------------------------------------------------ *)

let test_approximate_recovers_generator () =
  (* Data from a saturating curve; the winner must extrapolate it well. *)
  let f x = 1e6 *. (2.0 +. (6.0 *. x /. (x +. 8.0))) in
  let xs = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let ys = Array.map f xs in
  match Approximation.approximate ~xs ~ys ~target_max:48.0 ~require_nonnegative:true () with
  | Error d -> Alcotest.failf "no fit: %s" (Diag.render d)
  | Ok choice ->
      let predicted = choice.Approximation.fitted.Estima_kernels.Fit.eval 48.0 in
      let actual = f 48.0 in
      if Float.abs (predicted -. actual) > 0.15 *. actual then
        Alcotest.failf "extrapolation off: %.3g vs %.3g" predicted actual

let test_approximate_flat_stays_flat () =
  (* A flat series with mild noise must not be extrapolated into growth. *)
  let xs = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let ys = Array.mapi (fun i _ -> 1e6 *. (1.0 +. (0.01 *. sin (float_of_int i)))) xs in
  match Approximation.approximate ~xs ~ys ~target_max:48.0 ~require_nonnegative:true () with
  | Error d -> Alcotest.failf "no fit: %s" (Diag.render d)
  | Ok choice ->
      let predicted = choice.Approximation.fitted.Estima_kernels.Fit.eval 48.0 in
      if predicted > 3e6 || predicted < 0.3e6 then Alcotest.failf "flat series drifted to %.3g" predicted

let test_approximate_growing_keeps_growing () =
  (* A clearly super-linear series must not get a saturating fit. *)
  let xs = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let ys = Array.map (fun x -> 1e4 *. x *. x) xs in
  match Approximation.approximate ~xs ~ys ~target_max:48.0 ~require_nonnegative:true () with
  | Error d -> Alcotest.failf "no fit: %s" (Diag.render d)
  | Ok choice ->
      let at_window = choice.Approximation.fitted.Estima_kernels.Fit.eval 12.0 in
      let at_target = choice.Approximation.fitted.Estima_kernels.Fit.eval 48.0 in
      if at_target < 2.0 *. at_window then
        Alcotest.failf "growth clipped: %.3g -> %.3g" at_window at_target

let test_approximate_short_series_fallback () =
  (* Three points (the paper's memcached case) use the polynomial fallback. *)
  let xs = [| 1.0; 2.0; 3.0 |] and ys = [| 10.0; 14.0; 20.0 |] in
  match Approximation.approximate ~xs ~ys ~target_max:20.0 ~require_nonnegative:true () with
  | Error d -> Alcotest.failf "no fallback fit: %s" (Diag.render d)
  | Ok choice ->
      Alcotest.(check string) "fallback kernel" "PolyFallback"
        choice.Approximation.fitted.Estima_kernels.Fit.kernel_name

let test_approximate_rejects_bad_config () =
  expect_cause "bad config refused" "bad-config"
    (Approximation.approximate
       ~config:{ Approximation.default_config with Approximation.checkpoints = 0; min_prefix = 3 }
       ~xs:[| 1.0 |] ~ys:[| 1.0 |] ~target_max:4.0 ~require_nonnegative:false ())

(* ------------------------------------------------------------------ *)
(* Extrapolation                                                       *)
(* ------------------------------------------------------------------ *)

let intruder_series ?(plugins = [ Plugin.swisstm ]) () = collect ~plugins (entry "intruder").Suite.spec

let extrapolate_ok ?config ~series ~target_max ~include_software ~include_frontend () =
  ok_or_fail "extrapolate"
    (Extrapolation.extrapolate ?config ~series ~target_max ~include_software ~include_frontend ())

let test_extrapolation_all_categories_fitted () =
  let series = intruder_series () in
  let e = extrapolate_ok ~series ~target_max:48 ~include_software:true ~include_frontend:false () in
  Alcotest.(check int) "5 hw + 1 sw categories" 6 (List.length e.Extrapolation.fits);
  Alcotest.(check int) "grid to 48" 48 (Array.length e.Extrapolation.target_grid)

let test_extrapolation_software_toggle () =
  let series = intruder_series () in
  let no_sw = extrapolate_ok ~series ~target_max:48 ~include_software:false ~include_frontend:false () in
  Alcotest.(check int) "hw only" 5 (List.length no_sw.Extrapolation.fits);
  Alcotest.(check bool) "stm-abort absent" true
    (List.for_all (fun f -> f.Extrapolation.category <> "stm-abort") no_sw.Extrapolation.fits)

let test_extrapolation_stalls_per_core_positive () =
  let series = intruder_series () in
  let e = extrapolate_ok ~series ~target_max:48 ~include_software:true ~include_frontend:false () in
  Array.iter
    (fun v -> if v < 0.0 || not (Float.is_finite v) then Alcotest.failf "bad stalls per core %g" v)
    (Extrapolation.stalls_per_core e)

let test_extrapolation_dominant_categories () =
  let series = intruder_series () in
  let e = extrapolate_ok ~series ~target_max:48 ~include_software:true ~include_frontend:false () in
  let shares = Extrapolation.dominant_categories e ~at:48.0 in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 total;
  (* Sorted descending. *)
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted shares)

let synthetic_sample ~threads ~counters ~software =
  {
    Sample.threads;
    time_seconds = 0.001 *. float_of_int threads;
    cycles = 1e9;
    counters;
    software;
    footprint_lines = 100;
    useful_cycles = 1e6;
  }

let test_extrapolation_zero_fit () =
  (* A category measured as zero everywhere is carried as an exact zero. *)
  let sample n =
    synthetic_sample ~threads:n
      ~counters:[ ("0D2h", 600.0 *. float_of_int n); ("0D5h", 0.0) ]
      ~software:[]
  in
  let series =
    Series.make ~machine:opteron1s ~spec_name:"empty" (List.init 8 (fun i -> sample (i + 1)))
  in
  let e = extrapolate_ok ~series ~target_max:48 ~include_software:false ~include_frontend:false () in
  let zf = List.find (fun f -> f.Extrapolation.category = "0D5h") e.Extrapolation.fits in
  Alcotest.(check (float 0.0)) "zero everywhere" 0.0
    (zf.Extrapolation.choice.Approximation.fitted.Estima_kernels.Fit.eval 48.0)

let test_extrapolation_empty_series_rejected () =
  let empty = { Series.machine = opteron1s; spec_name = "empty"; samples = [||] } in
  (match
     Extrapolation.extrapolate ~series:empty ~target_max:8 ~include_software:false
       ~include_frontend:false ()
   with
  | Ok _ -> Alcotest.fail "empty series accepted"
  | Error d ->
      Alcotest.(check string) "typed cause" "short-series" (Diag.cause_label d.Diag.cause);
      let msg = Diag.render d in
      let contains needle =
        let nl = String.length needle and tl = String.length msg in
        let rec scan i = i + nl <= tl && (String.sub msg i nl = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "message %S names the problem" msg) true
        (contains "too short"))

let test_extrapolation_software_union_across_samples () =
  (* The excluded software set is the union across samples: a category the
     first sample happens to report among its counters, but that any later
     sample attributes to a software plugin, must still be dropped
     everywhere when software stalls are off. *)
  let sample n =
    let gc = ("gc-pause", 50.0 +. (10.0 *. float_of_int n)) in
    let counters = ("0D2h", 600.0 *. float_of_int n) :: (if n = 1 then [ gc ] else []) in
    let software = if n = 1 then [] else [ gc ] in
    synthetic_sample ~threads:n ~counters ~software
  in
  let series =
    Series.make ~machine:opteron1s ~spec_name:"disagreeing" (List.init 8 (fun i -> sample (i + 1)))
  in
  let no_sw =
    extrapolate_ok ~series ~target_max:16 ~include_software:false ~include_frontend:false ()
  in
  Alcotest.(check (list string)) "only the hardware category survives" [ "0D2h" ]
    (List.map (fun f -> f.Extrapolation.category) no_sw.Extrapolation.fits);
  if List.exists (fun f -> f.Extrapolation.category = "gc-pause") no_sw.Extrapolation.fits then
    Alcotest.fail "software category leaked through the union filter";
  let with_sw =
    extrapolate_ok ~series ~target_max:16 ~include_software:true ~include_frontend:false ()
  in
  Alcotest.(check int) "both categories with software on" 2 (List.length with_sw.Extrapolation.fits)

let test_extrapolation_clamps_categories_and_total () =
  (* Kernels may dip slightly below zero at low core counts; the total
     clamps each category at zero, so the clamped per-category curves sum
     to exactly the reported total. *)
  let grid = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let fit name eval =
    {
      Extrapolation.category = name;
      choice =
        {
          Approximation.fitted =
            Estima_kernels.Fit.of_closure "Synthetic" [||] ~y_scale:1.0 ~fit_rmse:0.0 eval;
          prefix = 5;
          checkpoint_rmse = 0.0;
        };
      measured = [||];
    }
  in
  let t =
    {
      Extrapolation.fits = [ fit "dips" (fun n -> n -. 6.0); fit "flat" (fun _ -> 10.0) ];
      threads = [| 1.0; 2.0; 3.0 |];
      target_grid = grid;
    }
  in
  let clamped name =
    let f = List.find (fun f -> f.Extrapolation.category = name) t.Extrapolation.fits in
    Array.map (Float.max 0.0)
      (Estima_kernels.Fit.values f.Extrapolation.choice.Approximation.fitted
         (Estima_kernels.Kernel.grid grid))
  in
  let dips = clamped "dips" and flat = clamped "flat" in
  let spc = Extrapolation.stalls_per_core t in
  Array.iteri
    (fun i n ->
      Alcotest.(check (float 1e-12)) "category clamped at zero" (Float.max 0.0 (n -. 6.0)) dips.(i);
      Alcotest.(check (float 1e-9)) "total equals sum of clamped categories"
        (dips.(i) +. flat.(i)) (spc.(i) *. n))
    grid

let test_extrapolation_target_below_window_rejected () =
  let series = intruder_series () in
  expect_cause "target below window refused" "target-below-window"
    (Extrapolation.extrapolate ~series ~target_max:6 ~include_software:false ~include_frontend:false ())

let test_extrapolation_missing_category_reported () =
  (* A counter present at some thread counts but absent at others is a
     malformed series: the diagnostic names the category and the first
     thread count where it is missing. *)
  let sample n =
    let counters =
      ("0D2h", 600.0 *. float_of_int n) :: (if n <= 4 then [ ("0D5h", 10.0) ] else [])
    in
    synthetic_sample ~threads:n ~counters ~software:[]
  in
  let series =
    Series.make ~machine:opteron1s ~spec_name:"holey" (List.init 8 (fun i -> sample (i + 1)))
  in
  match Extrapolation.extrapolate ~series ~target_max:16 ~include_software:false ~include_frontend:false () with
  | Ok _ -> Alcotest.fail "hole in the series accepted"
  | Error d -> (
      Alcotest.(check string) "typed cause" "missing-category" (Diag.cause_label d.Diag.cause);
      match d.Diag.cause with
      | Diag.Missing_category { category; threads } ->
          Alcotest.(check string) "category named" "0D5h" category;
          Alcotest.(check int) "first hole named" 5 threads
      | _ -> Alcotest.fail "wrong cause payload")

(* ------------------------------------------------------------------ *)
(* Scaling factor                                                      *)
(* ------------------------------------------------------------------ *)

let test_scaling_factor_constant_data () =
  (* time = 3 * stalls/core exactly: the factor must be ~3 everywhere. *)
  let threads = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let spc = Array.map (fun n -> 100.0 /. n) threads in
  let times = Array.map (fun s -> 3.0 *. s) spc in
  let grid = Array.init 16 (fun i -> float_of_int (i + 1)) in
  let spc_grid = Array.map (fun n -> 100.0 /. n) grid in
  let f =
    ok_or_fail "factor fit"
      (Scaling_factor.fit ~threads ~times ~stalls_per_core_measured:spc ~stalls_per_core_grid:spc_grid
         ~target_grid:grid ())
  in
  let predicted = Scaling_factor.predict_times f ~stalls_per_core_grid:spc_grid ~target_grid:grid in
  Array.iteri
    (fun i n ->
      let expected = 3.0 *. (100.0 /. n) in
      if Float.abs (predicted.(i) -. expected) > 0.05 *. expected then
        Alcotest.failf "factor wrong at %g: %.3g vs %.3g" n predicted.(i) expected)
    grid

let test_scaling_factor_correlation_high () =
  let series = intruder_series () in
  let p = ok_or_fail "predict" (Predictor.predict ~series ~target_max:48 ()) in
  if Float.is_finite p.Predictor.factor.Scaling_factor.correlation then
    Alcotest.(check bool) "correlation above 0.9" true
      (p.Predictor.factor.Scaling_factor.correlation > 0.9)

let test_scaling_factor_tie_break_reports_winner_correlation () =
  (* Regression: a core-count-dependent factor that displaces the running
     best through the RMSE tie-break (inside the correlation band) must
     report its own correlation.  The selection used to store
     [Float.max corr best_corr], i.e. the displaced incumbent's higher
     correlation, so the reported number described a fit that lost. *)
  let m = 12 in
  let threads = Array.init m (fun i -> float_of_int (i + 1)) in
  let factor n = 2.0 +. (0.1 *. n) +. (0.05 *. sin n) in
  let spc = Array.map (fun n -> 100.0 /. n) threads in
  let times = Array.mapi (fun i n -> factor n *. spc.(i)) threads in
  let grid = Array.init 24 (fun i -> float_of_int (i + 1)) in
  let spc_grid = Array.map (fun n -> 100.0 /. n) grid in
  let recorder = Estima_obs.Recorder.create () in
  let f =
    ok_or_fail "factor fit"
      (Estima_obs.Recorder.record recorder (fun () ->
           Scaling_factor.fit ~threads ~times ~stalls_per_core_measured:spc
             ~stalls_per_core_grid:spc_grid ~target_grid:grid ()))
  in
  (* Guard: this data must actually exercise the tie-break branch, and the
     fit it selected must be the final winner — otherwise the assertion
     below would pass vacuously and the regression could sneak back in. *)
  let winner_label =
    List.find_map
      (fun e ->
        match e.Estima_obs.Trace.payload with
        | Estima_obs.Trace.Winner { kernel; prefix; _ } ->
            Some (Printf.sprintf "%s@%d" kernel prefix)
        | _ -> None)
      (Estima_obs.Recorder.events recorder)
  in
  let tie_break_winners =
    List.filter_map
      (fun e ->
        match e.Estima_obs.Trace.payload with
        | Estima_obs.Trace.Decision { rule = "rmse-tie-break"; winner; _ } -> Some winner
        | _ -> None)
      (Estima_obs.Recorder.events recorder)
  in
  Alcotest.(check bool) "rmse tie-break exercised" true (tie_break_winners <> []);
  Alcotest.(check bool) "final winner came out of a tie-break" true
    (match winner_label with Some w -> List.mem w tie_break_winners | None -> false);
  (* The reported correlation must describe the chosen fit. *)
  let predicted = Scaling_factor.predict_times f ~stalls_per_core_grid:spc_grid ~target_grid:grid in
  let recomputed = Estima_numerics.Stats.pearson predicted spc_grid in
  Alcotest.(check (float 1e-12)) "correlation describes the chosen fit" recomputed
    f.Scaling_factor.correlation

let test_scaling_factor_rejects_nonpositive_stalls () =
  expect_cause "zero stalls refused" "bad-value"
    (Scaling_factor.fit ~threads:[| 1.0; 2.0 |] ~times:[| 1.0; 1.0 |]
       ~stalls_per_core_measured:[| 1.0; 0.0 |] ~stalls_per_core_grid:[| 1.0; 1.0 |]
       ~target_grid:[| 1.0; 2.0 |] ())

(* ------------------------------------------------------------------ *)
(* Predictor                                                           *)
(* ------------------------------------------------------------------ *)

let test_predictor_grid_and_window () =
  let series = intruder_series () in
  let p = ok_or_fail "predict" (Predictor.predict ~series ~target_max:48 ()) in
  Alcotest.(check int) "measured window" 12 (Predictor.measured_window p);
  Alcotest.(check int) "48 predictions" 48 (Array.length p.Predictor.predicted_times)

let test_predictor_matches_measured_region () =
  (* Within the measurement window the prediction should track the
     measured times closely. *)
  let series = intruder_series () in
  let p =
    ok_or_fail "predict"
      (Predictor.predict ~config:{ Predictor.default_config with Predictor.include_software = true }
         ~series ~target_max:48 ())
  in
  let times = Series.times series in
  Array.iteri
    (fun i t ->
      let predicted = p.Predictor.predicted_times.(i) in
      if Float.abs (predicted -. t) > 0.35 *. t then
        Alcotest.failf "window tracking off at %d: %.4g vs %.4g" (i + 1) predicted t)
    times

let test_predictor_frequency_scaling () =
  let series = intruder_series () in
  let base = ok_or_fail "predict" (Predictor.predict ~series ~target_max:48 ()) in
  let scaled =
    ok_or_fail "predict scaled"
      (Predictor.predict
         ~config:{ Predictor.default_config with Predictor.frequency_scale = 2.0 }
         ~series ~target_max:48 ())
  in
  (* Doubling the time scale must roughly double predictions. *)
  let ratio = scaled.Predictor.predicted_times.(20) /. base.Predictor.predicted_times.(20) in
  if ratio < 1.5 || ratio > 2.5 then Alcotest.failf "frequency scale not applied: ratio %.2f" ratio

let test_predictor_dataset_factor () =
  let series = intruder_series () in
  let base = ok_or_fail "predict" (Predictor.predict ~series ~target_max:48 ()) in
  let scaled =
    ok_or_fail "predict scaled"
      (Predictor.predict
         ~config:{ Predictor.default_config with Predictor.dataset_factor = 2.0 }
         ~series ~target_max:48 ())
  in
  let ratio = scaled.Predictor.predicted_times.(20) /. base.Predictor.predicted_times.(20) in
  if ratio < 1.2 then Alcotest.failf "dataset factor not applied: ratio %.2f" ratio

let test_predictor_category_kernels_reported () =
  let series = intruder_series () in
  let p = ok_or_fail "predict" (Predictor.predict ~series ~target_max:48 ()) in
  let kernels = Predictor.category_kernels p in
  Alcotest.(check int) "five hw categories" 5 (List.length kernels);
  List.iter (fun (_, k) -> Alcotest.(check bool) "kernel named" true (String.length k > 0)) kernels

let test_predictor_invalid_config () =
  let series = intruder_series () in
  expect_cause "zero frequency scale refused" "bad-config"
    (Predictor.predict
       ~config:{ Predictor.default_config with Predictor.frequency_scale = 0.0 }
       ~series ~target_max:48 ())

(* ------------------------------------------------------------------ *)
(* Time extrapolation baseline                                         *)
(* ------------------------------------------------------------------ *)

let test_time_extrapolation_basic () =
  let threads = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let times = Array.map (fun n -> 1.0 /. n) threads in
  let t = ok_or_fail "baseline" (Time_extrapolation.predict ~threads ~times ~target_max:48 ()) in
  Alcotest.(check int) "grid" 48 (Array.length t.Time_extrapolation.predicted_times);
  (* A perfectly scaling curve stays decreasing. *)
  let p = t.Time_extrapolation.predicted_times in
  Alcotest.(check bool) "still scaling at 48" true (p.(47) < p.(11))

let test_time_extrapolation_frequency () =
  let threads = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let times = Array.map (fun n -> 1.0 /. n) threads in
  let a = ok_or_fail "baseline" (Time_extrapolation.predict ~threads ~times ~target_max:24 ()) in
  let b =
    ok_or_fail "baseline scaled"
      (Time_extrapolation.predict ~threads ~times ~target_max:24 ~frequency_scale:2.0 ())
  in
  let ratio = b.Time_extrapolation.predicted_times.(5) /. a.Time_extrapolation.predicted_times.(5) in
  if Float.abs (ratio -. 2.0) > 0.2 then Alcotest.failf "frequency scale off: %.2f" ratio

(* ------------------------------------------------------------------ *)
(* Error metrics                                                       *)
(* ------------------------------------------------------------------ *)

let test_error_max_and_mean () =
  let e =
    Diag.Quality.evaluate ~predicted:[| 1.1; 2.0; 3.6 |] ~measured:[| 1.0; 2.0; 3.0 |]
      ~target_grid:[| 1.0; 2.0; 3.0 |] ()
  in
  Alcotest.(check (float 1e-9)) "max" 0.2 e.Diag.Quality.max_error;
  Alcotest.(check (float 1e-9)) "mean" 0.1 e.Diag.Quality.mean_error

let test_error_from_threads () =
  let e =
    Diag.Quality.evaluate ~predicted:[| 2.0; 2.0; 3.0 |] ~measured:[| 1.0; 2.0; 3.0 |]
      ~target_grid:[| 1.0; 2.0; 3.0 |] ~from_threads:2 ()
  in
  Alcotest.(check (float 1e-9)) "single-core excluded" 0.0 e.Diag.Quality.max_error

let test_scaling_verdicts () =
  let grid = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let scaling = Array.map (fun n -> 1.0 /. n) grid in
  Alcotest.(check bool) "scales" true (Diag.Quality.scaling_verdict ~times:scaling ~grid = Diag.Quality.Scales);
  let stops = Array.map (fun n -> if n <= 5.0 then 1.0 /. n else 0.2 +. (0.1 *. (n -. 5.0))) grid in
  (match Diag.Quality.scaling_verdict ~times:stops ~grid with
  | Diag.Quality.Stops_at k -> Alcotest.(check int) "stops near 5" 5 k
  | Diag.Quality.Scales -> Alcotest.fail "missed the stop")

let test_verdict_agreement () =
  Alcotest.(check bool) "both scale" true (Diag.Quality.agreement ~predicted:Diag.Quality.Scales ~measured:Diag.Quality.Scales);
  Alcotest.(check bool) "close stops" true
    (Diag.Quality.agreement ~predicted:(Diag.Quality.Stops_at 14) ~measured:(Diag.Quality.Stops_at 19));
  Alcotest.(check bool) "far stops" false
    (Diag.Quality.agreement ~predicted:(Diag.Quality.Stops_at 4) ~measured:(Diag.Quality.Stops_at 40));
  Alcotest.(check bool) "opposite" false (Diag.Quality.agreement ~predicted:Diag.Quality.Scales ~measured:(Diag.Quality.Stops_at 8))

let test_error_rejects_bad_input () =
  (try
     ignore (Diag.Quality.evaluate ~predicted:[| 1.0 |] ~measured:[| 1.0; 2.0 |] ~target_grid:[| 1.0; 2.0 |] ());
     Alcotest.fail "length mismatch accepted"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Bottleneck                                                          *)
(* ------------------------------------------------------------------ *)

let test_bottleneck_intruder_stm () =
  (* With software stalls on, intruder's future bottleneck must be the
     aborted transactions (the Section 4.6 finding). *)
  let series = intruder_series () in
  let p =
    ok_or_fail "predict"
      (Predictor.predict ~config:{ Predictor.default_config with Predictor.include_software = true }
         ~series ~target_max:48 ())
  in
  let analysis = Bottleneck.analyze p in
  let top3 = List.filteri (fun i _ -> i < 3) analysis.Bottleneck.findings in
  Alcotest.(check bool) "stm-abort in top 3" true
    (List.exists (fun f -> f.Bottleneck.category = "stm-abort") top3);
  let abort = List.find (fun f -> f.Bottleneck.category = "stm-abort") analysis.Bottleneck.findings in
  Alcotest.(check bool) "abort share grows" true
    (abort.Bottleneck.share_at_target > abort.Bottleneck.share_now);
  Alcotest.(check bool) "hint present" true (abort.Bottleneck.hint <> None)

let test_bottleneck_streamcluster_sync () =
  let series = collect ~plugins:[ Plugin.pthread_wrapper ] (entry "streamcluster").Suite.spec in
  let p =
    ok_or_fail "predict"
      (Predictor.predict ~config:{ Predictor.default_config with Predictor.include_software = true }
         ~series ~target_max:48 ())
  in
  let analysis = Bottleneck.analyze p in
  let sync = List.find_opt (fun f -> f.Bottleneck.category = "pthread-sync") analysis.Bottleneck.findings in
  match sync with
  | None -> Alcotest.fail "pthread-sync not analysed"
  | Some f -> Alcotest.(check bool) "sync significant at target" true (f.Bottleneck.share_at_target > 0.1)

let test_bottleneck_hints () =
  Alcotest.(check bool) "pthread hint" true (Bottleneck.hint_for "pthread-sync" <> None);
  Alcotest.(check bool) "stm hint" true (Bottleneck.hint_for "stm-abort" <> None);
  Alcotest.(check bool) "hw no hint" true (Bottleneck.hint_for "0D8h" = None)

(* ------------------------------------------------------------------ *)
(* Experiment protocol                                                 *)
(* ------------------------------------------------------------------ *)

let blackscholes_experiment () =
  ok_or_fail "experiment"
    (Experiment.run ~entry:(entry "blackscholes") ~measure_machine:opteron1s
       ~target_machine:Machines.opteron48 ())

let test_experiment_runs_end_to_end () =
  let o = blackscholes_experiment () in
  Alcotest.(check bool) "verdicts agree for blackscholes" true o.Experiment.error.Diag.Quality.verdict_agrees;
  Alcotest.(check bool) "error under 30%" true (o.Experiment.error.Diag.Quality.max_error < 0.30);
  Alcotest.(check int) "truth sweeps full machine" 48 (Array.length o.Experiment.truth.Series.samples)

let test_experiment_max_error_from () =
  let o = blackscholes_experiment () in
  let max_error_from from_threads =
    let { Experiment.prediction; truth; _ } = o in
    (Experiment.score ~from_threads ~prediction ~truth ()).Diag.Quality.max_error
  in
  let all = max_error_from 1 and tail = max_error_from 13 in
  Alcotest.(check (float 0.0)) "from 1 is the whole run" o.Experiment.error.Diag.Quality.max_error
    all;
  Alcotest.(check bool) "restricting cannot raise the max" true (tail <= all +. 1e-12)

let test_experiment_cross_machine_frequency () =
  (* Desktop -> server prediction applies the clock ratio automatically. *)
  let o =
    ok_or_fail "experiment"
      (Experiment.run ~entry:(entry "memcached") ~measure_machine:Machines.haswell_desktop
         ~target_machine:Machines.xeon20 ())
  in
  Alcotest.(check (float 1e-9)) "frequency scale recorded" (3.4 /. 2.8)
    o.Experiment.prediction.Predictor.config.Predictor.frequency_scale

(* ------------------------------------------------------------------ *)
(* Unit invariance                                                     *)
(* ------------------------------------------------------------------ *)

(* The fit normalises its data and every Table 1 family is closed under
   output scaling, so the unit of time must not change the answer: with
   the time column scaled by 2^k, every predicted time scales by exactly
   2^k, and every kernel, the factor's correlation (to the bit) and the
   verdict stay.  At k = -560 the factor's sums of squares underflowed
   and its correlation read nan. *)
let test_time_unit_invariance () =
  let config = Config.make ~measured_on:opteron1s ~target:Machines.opteron48 () in
  let series =
    ok_or_fail "ingest" (Api.load_series ~machine:opteron1s "../examples/data/kmeans_opteron.csv")
  in
  let predict series = ok_or_fail "predict" (Api.predict ~config ~series ~target_max:48 ()) in
  let reference = predict series in
  let bits = Int64.bits_of_float in
  List.iter
    (fun k ->
      let scale (s : Sample.t) = { s with Sample.time_seconds = Float.ldexp s.Sample.time_seconds k } in
      let p = predict { series with Series.samples = Array.map scale series.Series.samples } in
      let what = Printf.sprintf "2^%d" k in
      Alcotest.(check (list (pair string string)))
        (what ^ ": category kernels") (Predictor.category_kernels reference) (Predictor.category_kernels p);
      Alcotest.(check string) (what ^ ": factor kernel") (Predictor.factor_kernel reference) (Predictor.factor_kernel p);
      Alcotest.(check int64)
        (what ^ ": correlation bits")
        (bits reference.Predictor.factor.Scaling_factor.correlation)
        (bits p.Predictor.factor.Scaling_factor.correlation);
      Array.iteri
        (fun i t ->
          let expected = Float.ldexp t k and got = p.Predictor.predicted_times.(i) in
          if bits expected <> bits got then
            Alcotest.failf "%s: time at %d cores is %h, expected %h" what (i + 1) got expected)
        reference.Predictor.predicted_times;
      Alcotest.(check bool) (what ^ ": verdict") true (Api.verdict reference = Api.verdict p))
    [ -560; -450; -300; -100; -20; 20; 100 ]

let suite =
  [
    ("approximate recovers generator", `Quick, test_approximate_recovers_generator);
    ("approximate flat stays flat", `Quick, test_approximate_flat_stays_flat);
    ("approximate growing keeps growing", `Quick, test_approximate_growing_keeps_growing);
    ("approximate short series fallback", `Quick, test_approximate_short_series_fallback);
    ("approximate rejects bad config", `Quick, test_approximate_rejects_bad_config);
    ("extrapolation all categories fitted", `Quick, test_extrapolation_all_categories_fitted);
    ("extrapolation software toggle", `Quick, test_extrapolation_software_toggle);
    ("extrapolation stalls per core positive", `Quick, test_extrapolation_stalls_per_core_positive);
    ("extrapolation dominant categories", `Quick, test_extrapolation_dominant_categories);
    ("extrapolation zero fit", `Quick, test_extrapolation_zero_fit);
    ("extrapolation empty series rejected", `Quick, test_extrapolation_empty_series_rejected);
    ("extrapolation software union across samples", `Quick, test_extrapolation_software_union_across_samples);
    ("extrapolation clamps categories and total", `Quick, test_extrapolation_clamps_categories_and_total);
    ("extrapolation target below window rejected", `Quick, test_extrapolation_target_below_window_rejected);
    ("extrapolation missing category reported", `Quick, test_extrapolation_missing_category_reported);
    ("scaling factor constant data", `Quick, test_scaling_factor_constant_data);
    ("scaling factor correlation high", `Quick, test_scaling_factor_correlation_high);
    ( "scaling factor tie-break reports winner correlation",
      `Quick,
      test_scaling_factor_tie_break_reports_winner_correlation );
    ("scaling factor rejects nonpositive stalls", `Quick, test_scaling_factor_rejects_nonpositive_stalls);
    ("predictor grid and window", `Quick, test_predictor_grid_and_window);
    ("predictor matches measured region", `Quick, test_predictor_matches_measured_region);
    ("predictor frequency scaling", `Quick, test_predictor_frequency_scaling);
    ("predictor dataset factor", `Quick, test_predictor_dataset_factor);
    ("predictor category kernels reported", `Quick, test_predictor_category_kernels_reported);
    ("predictor invalid config", `Quick, test_predictor_invalid_config);
    ("time extrapolation basic", `Quick, test_time_extrapolation_basic);
    ("time extrapolation frequency", `Quick, test_time_extrapolation_frequency);
    ("error max and mean", `Quick, test_error_max_and_mean);
    ("error from threads", `Quick, test_error_from_threads);
    ("scaling verdicts", `Quick, test_scaling_verdicts);
    ("verdict agreement", `Quick, test_verdict_agreement);
    ("error rejects bad input", `Quick, test_error_rejects_bad_input);
    ("bottleneck intruder stm", `Quick, test_bottleneck_intruder_stm);
    ("bottleneck streamcluster sync", `Quick, test_bottleneck_streamcluster_sync);
    ("bottleneck hints", `Quick, test_bottleneck_hints);
    ("experiment end to end", `Slow, test_experiment_runs_end_to_end);
    ("experiment max error from", `Slow, test_experiment_max_error_from);
    ("experiment cross machine frequency", `Slow, test_experiment_cross_machine_frequency);
    ("predictions do not depend on the unit of time", `Quick, test_time_unit_invariance);
  ]
