open Estima_machine
open Estima_workloads
open Estima_counters
open Estima

type result = {
  prediction : Predictor.t;
  truth_times : float array;
  per_core_minimum_inside_window : bool;
  error : Diag.Quality.t;
}

let compute () =
  let entry = Option.get (Suite.find "intruder") in
  let prediction =
    Lab.predict ~software:true ~entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48 ()
  in
  let truth = Experiment.sweep ~entry ~machine:Machines.opteron48 () in
  let truth_times = Series.times truth in
  let spc = prediction.Predictor.stalls_per_core in
  (* Minimum of predicted stalls per core: at or below the window, and the
     curve rises afterwards. *)
  (* The figure's observation: stalls per core fall to a minimum inside
     (or just past) the measurement window, then rise — the early warning.
     Locate the first upward inflection over a running minimum; the raw
     argmin would be confused by any far-tail artefact of the fits. *)
  let per_core_minimum_inside_window =
    let running_min = ref spc.(0) in
    let running_min_index = ref 0 in
    let verdict = ref false in
    (try
       Array.iteri
         (fun i v ->
           if v < !running_min then begin
             running_min := v;
             running_min_index := i
           end
           else if v > 1.05 *. !running_min then begin
             verdict := !running_min_index < 20;
             raise Exit
           end)
         spc
     with Exit -> ());
    !verdict
  in
  let error = Experiment.score ~prediction ~truth () in
  { prediction; truth_times; per_core_minimum_inside_window; error }

let run () =
  Render.heading "[F5] Figure 5 - intruder walkthrough (measure 12 -> predict 48, Opteron)";
  let r = compute () in
  let p = r.prediction in
  Render.subheading "(a-f) per-category extrapolations";
  Render.table
    ~header:[ "category"; "kernel"; "prefix"; "measured@12"; "extrapolated@48" ]
    ~rows:
      (List.map
         (fun (f : Extrapolation.category_fit) ->
           let fitted = f.Extrapolation.choice.Approximation.fitted in
           let m = Array.length f.Extrapolation.measured in
           [
             f.Extrapolation.category;
             fitted.Estima_kernels.Fit.kernel_name;
             string_of_int f.Extrapolation.choice.Approximation.prefix;
             Render.float3 f.Extrapolation.measured.(m - 1);
             Render.float3 (fitted.Estima_kernels.Fit.eval 48.0);
           ])
         p.Predictor.extrapolation.Extrapolation.fits);
  Render.series ~title:"(g) total stalled cycles per core + (i) execution time"
    ~grid:p.Predictor.target_grid
    ~columns:
      [
        ("stalls/core", p.Predictor.stalls_per_core);
        ("predicted time (s)", p.Predictor.predicted_times);
        ("measured time (s)", r.truth_times);
      ];
  Render.printf "\n(h) scaling factor kernel: %s (correlation %.3f)\n" (Predictor.factor_kernel p)
    p.Predictor.factor.Scaling_factor.correlation;
  Render.printf "stalls-per-core minimum inside/near window with later rise: %b\n"
    r.per_core_minimum_inside_window;
  Render.printf "prediction: %s | measured: %s | max error %s\n%!"
    (Render.verdict r.error.Diag.Quality.predicted_verdict)
    (Render.verdict r.error.Diag.Quality.measured_verdict)
    (Render.pct r.error.Diag.Quality.max_error)
