(* Tests for the bootstrap confidence subsystem (Estima_confidence via
   Estima.Api.predict_with_confidence):

   - determinism: bands are bitwise identical at --jobs 1 and 4 and
     across repeated runs with the same seed;
   - shape: lo <= median <= hi at every target core count, everything
     finite and non-negative, the stop interval brackets both the
     verdict and the resample spread;
   - sensitivity: a shrunken residual scale narrows the bands (the
     calibration gate's lever);
   - rendering: golden snapshots of the confidence table for two corpus
     workloads, shared byte-for-byte by estima_cli and estima_serve;
   - validation: a resample count below 1 is a typed Bad_config. *)

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

(* One cached series per process: every test perturbs the same window. *)
let series = lazy (collect (entry "kmeans").Suite.spec)

let config () = Config.make ~measured_on:opteron1s ~target:Machines.opteron48 ()

let estimate ?(resamples = 20) ?residual_scale () =
  ok_or_fail "predict_with_confidence"
    (Api.predict_with_confidence ~config:(config ()) ~resamples ?residual_scale
       ~series:(Lazy.force series) ~target_max:48 ())

(* Pin the fan-out width for the duration of [f], restoring the
   environment default afterwards. *)
let with_jobs n f =
  Fun.protect ~finally:(fun () -> Estima_par.Fanout.set_jobs None) (fun () ->
      Estima_par.Fanout.set_jobs (Some n);
      f ())

(* Bitwise equality: the determinism contract is byte-identity of the
   rendered output, so float comparison must be exact, not epsilon. *)
let bits c =
  let band_bits (b : Api.Confidence.band) =
    List.map Int64.bits_of_float [ b.Api.Confidence.lo; b.Api.Confidence.median; b.Api.Confidence.hi ]
  in
  ( List.concat_map band_bits (Array.to_list c.Api.Confidence.bands),
    Int64.bits_of_float c.Api.Confidence.scaling_fraction,
    c.Api.Confidence.stop_interval,
    c.Api.Confidence.verdict )

let test_deterministic_across_jobs () =
  let _, c1 = with_jobs 1 (fun () -> estimate ()) in
  let _, c4 = with_jobs 4 (fun () -> estimate ()) in
  if bits c1 <> bits c4 then Alcotest.fail "bands differ between --jobs 1 and --jobs 4";
  let _, c1' = with_jobs 1 (fun () -> estimate ()) in
  if bits c1 <> bits c1' then Alcotest.fail "bands differ between identical runs"

let test_band_shape () =
  let p, c = estimate () in
  Alcotest.(check int) "one band per target core" 48 (Array.length c.Api.Confidence.bands);
  Alcotest.(check int) "all resamples succeeded" c.Api.Confidence.resamples
    c.Api.Confidence.succeeded;
  Array.iteri
    (fun i (b : Api.Confidence.band) ->
      let n = int_of_float p.Api.Prediction.target_grid.(i) in
      if not (Float.is_finite b.Api.Confidence.lo && Float.is_finite b.Api.Confidence.hi) then
        Alcotest.failf "non-finite band at %d cores" n;
      if b.Api.Confidence.lo < 0.0 then Alcotest.failf "negative band floor at %d cores" n;
      if b.Api.Confidence.lo > b.Api.Confidence.median || b.Api.Confidence.median > b.Api.Confidence.hi
      then
        Alcotest.failf "band not ordered at %d cores: %g / %g / %g" n b.Api.Confidence.lo
          b.Api.Confidence.median b.Api.Confidence.hi)
    c.Api.Confidence.bands

let test_verdict_consistent_with_interval () =
  let _, c = estimate ~resamples:40 () in
  (match (c.Api.Confidence.verdict, c.Api.Confidence.stop_interval) with
  | Api.Confidence.Stops_at { lo; hi }, Some (ilo, ihi) ->
      if not (ilo <= lo && lo <= hi && hi <= ihi) then
        Alcotest.failf "verdict interval [%d,%d] escapes the resample interval [%d,%d]" lo hi ilo
          ihi
  | Api.Confidence.Stops_at _, None ->
      Alcotest.fail "stops verdict without a stop interval"
  | (Api.Confidence.Scales | Api.Confidence.Uncertain), _ -> ());
  let f = c.Api.Confidence.scaling_fraction in
  if f < 0.0 || f > 1.0 then Alcotest.failf "scaling fraction %g outside [0,1]" f

let mean_width (c : Api.Confidence.t) =
  let total =
    Array.fold_left
      (fun acc (b : Api.Confidence.band) -> acc +. (b.Api.Confidence.hi -. b.Api.Confidence.lo))
      0.0 c.Api.Confidence.bands
  in
  total /. float_of_int (Array.length c.Api.Confidence.bands)

let test_residual_scale_narrows_bands () =
  (* The calibration lever: shrinking the resampled residuals must
     shrink the bands — this is what --perturb-calibration exploits and
     the calibration gate must catch. *)
  let _, wide = estimate ~residual_scale:1.0 () in
  let _, narrow = estimate ~residual_scale:0.05 () in
  let w = mean_width wide and n = mean_width narrow in
  if not (n < w) then Alcotest.failf "residual scale 0.05 did not narrow bands: %g vs %g" n w

let test_more_resamples_stabilize_bands () =
  (* Quantile estimates converge: the band width at 80 resamples must
     stay within a factor of the 20-resample estimate, and repeated
     80-resample runs agree exactly (determinism already pins that). *)
  let _, few = estimate ~resamples:20 () in
  let _, many = estimate ~resamples:80 () in
  let wf = mean_width few and wm = mean_width many in
  if wm > 3.0 *. wf || wf > 3.0 *. wm then
    Alcotest.failf "band width unstable across resample counts: %g vs %g" wf wm

let test_rejects_bad_parameters () =
  let expect what = function
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error d -> Alcotest.(check string) what "bad-config" (Diag.cause_label d.Diag.cause)
  in
  List.iter
    (fun resamples ->
      expect
        (Printf.sprintf "resamples %d" resamples)
        (Api.predict_with_confidence ~config:(config ()) ~resamples ~series:(Lazy.force series)
           ~target_max:48 ()))
    [ 0; 1001 ]

(* Golden snapshots: the rendered confidence block for two corpus
   workloads.  These are the bytes estima_cli predict --confidence
   prints and estima_serve returns in the "confidence" member; bless by
   deleting the file and copying the printed actual text in. *)
let golden_dir () =
  match List.find_opt Sys.file_exists [ "golden"; "test/golden" ] with
  | Some dir -> dir
  | None -> Alcotest.fail "test/golden not reachable from the test's working directory"

let render_confidence p c =
  String.concat "\n"
    (Api.render_confidence_summary c
    :: Api.confidence_rows_header c
    :: (Api.render_confidence_rows p c @ [ Api.render_confidence_verdict c; "" ]))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name workload =
  let e = entry workload in
  let series = collect ~plugins:e.Suite.plugins e.Suite.spec in
  let p, c =
    ok_or_fail "predict_with_confidence"
      (Api.predict_with_confidence
         ~config:(Config.make ~include_software:(e.Suite.plugins <> []) ~measured_on:opteron1s ~target:Machines.opteron48 ())
         ~resamples:20 ~series ~target_max:48 ())
  in
  let actual = render_confidence p c in
  let path = Filename.concat (golden_dir ()) name in
  if not (Sys.file_exists path) then
    Alcotest.failf "golden %s missing; expected contents:\n%s" path actual
  else
    let expected = read_file path in
    if actual <> expected then
      Alcotest.failf "confidence snapshot %s drifted.\n--- expected ---\n%s--- actual ---\n%s"
        name expected actual

let test_golden_kmeans () = check_golden "confidence_kmeans.txt" "kmeans"

let test_golden_intruder () = check_golden "confidence_intruder.txt" "intruder"

let suite =
  [
    ("deterministic across jobs", `Quick, test_deterministic_across_jobs);
    ("band shape", `Quick, test_band_shape);
    ("verdict consistent with interval", `Quick, test_verdict_consistent_with_interval);
    ("residual scale narrows bands", `Quick, test_residual_scale_narrows_bands);
    ("more resamples stabilize bands", `Quick, test_more_resamples_stabilize_bands);
    ("rejects bad parameters", `Quick, test_rejects_bad_parameters);
    ("golden snapshot: kmeans", `Quick, test_golden_kmeans);
    ("golden snapshot: intruder", `Quick, test_golden_intruder);
  ]
