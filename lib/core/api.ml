open Estima_counters

let version = 3

module Config = Config
module Diag = Diag
module Quality = Diag.Quality
module Prediction = Predictor
module Bottleneck = Bottleneck
module Confidence = Estima_confidence.Confidence

(* Collection resolves through the shared measurement store: repeated
   collects of the same request (same spec, machine, window, seed,
   repetitions, plugins) return the memoised series, and with a store
   directory configured (ESTIMA_STORE / --store) the series persists
   across processes.  The simulator is deterministic per request, so the
   caching is observationally transparent — byte-identical series. *)
let collect ?(seed = 42) ?(repetitions = 5) ?(plugins = []) ~machine ~spec ~max_threads () =
  Estima_store.Store.Cached.collect
    ~options:{ Collector.default_options with Collector.seed; plugins; repetitions }
    ~machine ~spec
    ~thread_counts:(Collector.default_thread_counts ~max:max_threads)
    ()

let validate_window ~machine ~max_threads =
  let limit = Estima_machine.Topology.hardware_threads machine in
  if max_threads < 1 then
    Diag.error ~stage:Diag.Collect ~subject:machine.Estima_machine.Topology.name
      (Diag.Bad_config { what = Printf.sprintf "measurement window %d (need >= 1)" max_threads })
  else if max_threads > limit then
    Diag.error ~stage:Diag.Collect ~subject:machine.Estima_machine.Topology.name
      (Diag.Bad_config
         {
           what =
             Printf.sprintf "measurement window %d exceeds the machine's %d hardware threads"
               max_threads limit;
         })
  else Ok ()

let validate_sockets ~machine ~sockets =
  let limit = machine.Estima_machine.Topology.sockets in
  if sockets < 1 || sockets > limit then
    Diag.error ~stage:Diag.Collect ~subject:machine.Estima_machine.Topology.name
      (Diag.Bad_config
         {
           what =
             Printf.sprintf "socket count %d (the machine has %d socket%s)" sockets limit
               (if limit = 1 then "" else "s");
         })
  else Ok ()

let validate_repetitions ~spec ~repetitions =
  if repetitions < 1 then
    Diag.error ~stage:Diag.Collect ~subject:spec.Estima_sim.Spec.name
      (Diag.Bad_config { what = Printf.sprintf "repetitions %d (need >= 1)" repetitions })
  else Ok ()

let collect_checked ?(seed = 42) ?(repetitions = 5) ?(plugins = []) ~machine ~spec ~max_threads
    () =
  Result.bind (validate_window ~machine ~max_threads) (fun () ->
      Result.bind (validate_repetitions ~spec ~repetitions) (fun () ->
          Ok (collect ~seed ~repetitions ~plugins ~machine ~spec ~max_threads ())))

let spec_name_of_path path = Filename.remove_extension (Filename.basename path)

let load_series ?spec_name ~machine path =
  let spec_name = Option.value ~default:(spec_name_of_path path) spec_name in
  Ingest.load_series ~machine ~spec_name path

let series_of_csv ?(file = "<csv>") ?spec_name ~machine csv =
  let spec_name = Option.value ~default:(spec_name_of_path file) spec_name in
  Ingest.series_of_csv ~file ~machine ~spec_name csv

let attach_software = Ingest.attach_software
let load_report = Ingest.load_report

let predict ?(config = Config.default) ~series ~target_max () =
  Predictor.predict ~config:(Config.predictor config) ~series ~target_max ()

let predict_traced ?(config = Config.default) ~series ~target_max () =
  match config.Config.trace with
  | None -> (predict ~config ~series ~target_max (), None)
  | Some format ->
      let recorder = Estima_obs.Recorder.create () in
      let result =
        Estima_obs.Recorder.record recorder (fun () ->
            Predictor.predict ~config:(Config.predictor config) ~series ~target_max ())
      in
      let rendered =
        match format with
        | Config.Text -> Format.asprintf "%a" Estima_obs.Trace_render.pp_recorder recorder
        | Config.Json -> Estima_obs.Trace_render.json_of_recorder recorder
      in
      (result, Some rendered)

(* The confidence wrapper: run the point prediction, then hand the
   pipeline's own fitted curves over the measured window (per stall
   category, plus the translated time curve mapped back to measured
   space) to the residual bootstrap, with the full predictor injected as
   the refit closure.  The bootstrap fans out on Fanout, so the bands are
   byte-identical at any --jobs setting, like the prediction itself. *)
let predict_with_confidence ?(config = Config.default) ?(resamples = 100)
    ?(residual_scale = 1.0) ~series ~target_max () =
  if resamples < 1 then
    Diag.error ~stage:Diag.Translate ~subject:series.Series.spec_name
      (Diag.Bad_config { what = Printf.sprintf "confidence resamples %d (need >= 1)" resamples })
  else
    match predict ~config ~series ~target_max () with
    | Error d -> Error d
    | Ok p ->
        let pc = Config.predictor config in
        let threads = p.Predictor.extrapolation.Extrapolation.threads in
        let window = Estima_kernels.Kernel.grid threads in
        let curves =
          List.map
            (fun (f : Extrapolation.category_fit) ->
              {
                Confidence.category = f.Extrapolation.category;
                fitted =
                  Array.map (Float.max 0.0)
                    (Estima_kernels.Fit.values f.Extrapolation.choice.Approximation.fitted window);
                measured = f.Extrapolation.measured;
              })
            p.Predictor.extrapolation.Extrapolation.fits
        in
        (* predicted_times are in target space (frequency and dataset
           scaling applied); divide the scales back out so the time
           residuals live in the same units as the measured series. *)
        let scale = pc.Predictor.frequency_scale *. pc.Predictor.dataset_factor in
        let fitted_times =
          Array.map (fun x -> p.Predictor.predicted_times.(int_of_float x - 1) /. scale) threads
        in
        let predict_resample s =
          match Predictor.predict ~config:pc ~series:s ~target_max () with
          | Ok r -> Some r.Predictor.predicted_times
          | Error _ -> None
        in
        let grid = p.Predictor.target_grid in
        let classify times =
          match Quality.scaling_verdict ~times ~grid with
          | Quality.Scales -> `Scales
          | Quality.Stops_at k -> `Stops_at k
        in
        let confidence =
          Confidence.estimate ~residual_scale ~resamples ~series ~curves
            ~fitted_times ~base_times:p.Predictor.predicted_times ~target_grid:grid
            ~predict:predict_resample ~classify ()
        in
        Ok (p, confidence)

let render_summary prediction = Format.asprintf "%a" Predictor.pp_summary prediction

let rows_header = "cores  predicted-time(s)  stalls/core"

(* A time in a 17-wide column: [%17.5f], unless that prints a nonzero
   time with no nonzero digit (a time in 1e-200 units reads 0.00000),
   which then prints as [%17.5e]. *)
let render_time t =
  let fixed = Printf.sprintf "%17.5f" t in
  if t = 0.0 || String.exists (fun c -> c >= '1' && c <= '9') fixed then fixed
  else Printf.sprintf "%17.5e" t

let render_rows (p : Prediction.t) =
  Array.to_list
    (Array.mapi
       (fun i n ->
         Printf.sprintf "%5.0f  %s  %.4g" n
           (render_time p.Predictor.predicted_times.(i))
           p.Predictor.stalls_per_core.(i))
       p.Predictor.target_grid)

let verdict (p : Prediction.t) =
  Quality.scaling_verdict ~times:p.Predictor.predicted_times ~grid:p.Predictor.target_grid

let render_verdict p = "the application " ^ Quality.verdict_to_string (verdict p)

let render_text p =
  Printf.sprintf "%s\n\n%s\n%s\nprediction: %s\n" (render_summary p) rows_header
    (String.concat "" (List.map (fun row -> row ^ "\n") (render_rows p)))
    (render_verdict p)

let render_confidence_summary (c : Confidence.t) =
  Printf.sprintf "confidence: %g%% bands from %d/%d bootstrap resamples (seed %d)"
    (100.0 *. c.Confidence.level) c.Confidence.succeeded c.Confidence.resamples
    c.Confidence.seed

let confidence_rows_header (c : Confidence.t) =
  let q_lo = (1.0 -. c.Confidence.level) /. 2.0 in
  Printf.sprintf "%5s  %17s  %17s  %17s" "cores"
    (Printf.sprintf "p%g-time(s)" (Float.round (100.0 *. q_lo)))
    "p50-time(s)"
    (Printf.sprintf "p%g-time(s)" (Float.round (100.0 *. (1.0 -. q_lo))))

let render_confidence_rows (p : Prediction.t) (c : Confidence.t) =
  Array.to_list
    (Array.mapi
       (fun i n ->
         let b = c.Confidence.bands.(i) in
         Printf.sprintf "%5.0f  %s  %s  %s" n (render_time b.Confidence.lo)
           (render_time b.Confidence.median) (render_time b.Confidence.hi))
       p.Predictor.target_grid)

let render_confidence_verdict (c : Confidence.t) =
  "the application " ^ Confidence.verdict_to_string c
