(* Tests for the reproduction harness: rendering, the lab cache, and the
   cheap end-to-end experiments (the full suite runs in
   `estima_cli repro`). *)

open Estima_workloads
open Estima_repro
module Experiment = Estima.Experiment

let test_render_table () =
  (* Just exercise alignment and the ragged-row guard. *)
  Render.table ~header:[ "a"; "b" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ];
  Alcotest.check_raises "ragged" (Invalid_argument "Render.table: ragged rows") (fun () ->
      Render.table ~header:[ "a"; "b" ] ~rows:[ [ "1" ] ])

let test_render_formats () =
  Alcotest.(check string) "pct" "12.3%" (Render.pct 0.123);
  Alcotest.(check string) "float3" "1.23" (Render.float3 1.234);
  Alcotest.(check string) "verdict" "scales" (Render.verdict Estima.Diag.Quality.Scales)

let test_render_series_guard () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Render.series: column x length mismatch")
    (fun () -> Render.series ~title:"t" ~grid:[| 1.0; 2.0 |] ~columns:[ ("x", [| 1.0 |]) ])

(* The experiments measure through the shared store: the in-memory tier
   is compute-once, so a repeated measurement is a hit on the same
   series. *)
let test_lab_cache_hits () =
  let entry = Option.get (Suite.find "swaptions") in
  let stats () = Estima_store.Store.stats (Estima_store.Store.default ()) in
  let misses0 = (stats ()).Estima_store.Store.misses in
  let a = Experiment.measure ~entry ~machine:Lab.opteron_1socket ~max_threads:4 () in
  let b = Experiment.measure ~entry ~machine:Lab.opteron_1socket ~max_threads:4 () in
  let s = stats () in
  Alcotest.(check bool) "one miss" true (s.Estima_store.Store.misses >= misses0 + 1);
  Alcotest.(check bool) "second call hits" true (s.Estima_store.Store.hits >= 1);
  Alcotest.(check bool) "same series" true (a == b)

let test_lab_sweep_distinct_seed () =
  (* Measurement and ground truth use different seed bases so the
     validation never sees the exact training runs. *)
  let entry = Option.get (Suite.find "swaptions") in
  let m = Experiment.measure ~entry ~machine:Lab.opteron_1socket ~max_threads:4 () in
  let t = Experiment.sweep ~max_threads:4 ~entry ~machine:Lab.opteron_1socket () in
  let tm = Estima_counters.Series.times m and tt = Estima_counters.Series.times t in
  Alcotest.(check bool) "different runs" true (tm <> tt)

let test_fig1_mispredicts () =
  let r = Fig1_kmeans_time.compute () in
  Alcotest.(check bool) "time extrapolation mispredicts kmeans" false
    (Estima.Diag.Quality.agreement ~predicted:r.Fig1_kmeans_time.baseline_verdict
       ~measured:r.Fig1_kmeans_time.measured_verdict)

let test_fig2_high_correlation () =
  List.iter
    (fun (w : Fig2_correlation.workload_result) ->
      if w.Fig2_correlation.correlation < 0.9 then
        Alcotest.failf "%s correlation %.2f below 0.9" w.Fig2_correlation.name
          w.Fig2_correlation.correlation)
    (Fig2_correlation.compute ())

let test_fig5_walkthrough () =
  let r = Fig5_intruder_walkthrough.compute () in
  let spc = r.Fig5_intruder_walkthrough.prediction.Estima.Predictor.stalls_per_core in
  if not r.Fig5_intruder_walkthrough.per_core_minimum_inside_window then
    Alcotest.failf "spc: min %.4g [1]=%.4g [12]=%.4g [24]=%.4g [48]=%.4g"
      (Array.fold_left Float.min spc.(0) spc) spc.(0) spc.(11) spc.(23) spc.(47);
  Alcotest.(check bool) "verdicts agree" true
    r.Fig5_intruder_walkthrough.error.Estima.Diag.Quality.verdict_agrees

let test_fig15_wider_window_helps () =
  let r = Fig15_limitations.compute () in
  Alcotest.(check bool) "24-core window beats 12-core" true
    (r.Fig15_limitations.from_24.Fig15_limitations.max_error
    < r.Fig15_limitations.from_12.Fig15_limitations.max_error)

let test_all_registry () =
  Alcotest.(check int) "17 experiments" 17 (List.length All.experiments);
  (match All.resolve [ "nonsense" ] with
  | Error msg -> Alcotest.(check bool) "lists valid ids" true (String.length msg > 20)
  | Ok _ -> Alcotest.fail "accepted bogus id")

let suite =
  [
    ("render table", `Quick, test_render_table);
    ("render formats", `Quick, test_render_formats);
    ("render series guard", `Quick, test_render_series_guard);
    ("lab cache hits", `Quick, test_lab_cache_hits);
    ("lab sweep distinct seed", `Quick, test_lab_sweep_distinct_seed);
    ("fig1 time extrapolation mispredicts kmeans", `Slow, test_fig1_mispredicts);
    ("fig2 high correlation", `Slow, test_fig2_high_correlation);
    ("fig5 intruder walkthrough", `Slow, test_fig5_walkthrough);
    ("fig15 wider window helps", `Slow, test_fig15_wider_window_helps);
    ("experiment registry", `Quick, test_all_registry);
  ]
