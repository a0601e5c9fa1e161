(* The traced run's view below Api.predict, built only from public
   functions: each stage of one prediction is called directly on the same
   series — Extrapolation, then per stall category Approximation, then
   every (kernel, prefix) fit the selection makes, then every LM start of
   each nonlinear fit — and timed separately.

   Re-enumerating the fits outside the program is also a check on the
   trace: their count must equal the program's own fit.attempts counter
   for the same prediction, and the stages must pick the kernels the
   end-to-end prediction reports.  Call at jobs 1: allocation is read
   from the calling domain's GC counters. *)

module Vec = Estima_numerics.Vec
module Lm = Estima_numerics.Lm
open Estima_kernels
open Estima_counters
module Api = Estima.Api
module Approximation = Estima.Approximation
module Extrapolation = Estima.Extrapolation

type fit_call = { kernel : string; ok : bool; fit_ns : float; fit_words : float; starts : int }

type lm_call = { lm_ns : float; iterations : int; converged : bool; lm_words : float }

type t = {
  predict_ns : float;
  predict_words : float;
  predict_minor_gcs : int;
  extrapolation_ns : float;
  factor_ns : float;
  approximation_self_ns : float list;  (** Per fitted category. *)
  fits : fit_call list;
  lms : lm_call list;
  program_attempts : int;  (** fit.attempts as the program counted it. *)
  stages_agree : bool;
}

let with_words f =
  let w0 = Util.allocated_words () in
  let r, ns = Util.timed f in
  (r, ns, Util.allocated_words () -. w0)

(* Every LM start Fit.fit makes for a nonlinear kernel: the same
   normalisation, guesses and finite-start filter. *)
let lm_starts (kernel : Kernel.t) ~xs ~ys =
  if kernel.Kernel.linear || not (Kernel.applicable kernel ~npoints:(Array.length xs)) then []
  else
    let y_scale = match Vec.norm_inf ys with m when m > 0.0 -> m | _ -> 1.0 in
    let ys = Array.map (fun y -> y /. y_scale) ys in
    let objective = Kernel.residual_objective kernel ~xs ~ys in
    List.filter_map
      (fun init ->
        if not (Vec.all_finite (objective.Lm.residual init)) then None
        else
          match with_words (fun () -> Lm.minimize objective ~init) with
          | r, lm_ns, lm_words ->
              Some
                {
                  lm_ns;
                  iterations = r.Lm.iterations;
                  converged = r.Lm.outcome = Lm.Converged;
                  lm_words;
                }
          | exception Invalid_argument _ -> None)
      (kernel.Kernel.initial_guesses ~xs ~ys)

let replay_fit kernel ~xs ~ys =
  let fitted, fit_ns, fit_words = with_words (fun () -> Fit.fit kernel ~xs ~ys) in
  let lms = lm_starts kernel ~xs ~ys in
  ( { kernel = kernel.Kernel.name; ok = fitted <> None; fit_ns; fit_words; starts = List.length lms },
    lms )

(* The (kernel, prefix) sweep Approximation and Scaling_factor make:
   every kernel on every prefix from min_prefix to m - checkpoints. *)
let prefix_sweep (config : Approximation.config) ~xs ~ys =
  let m = Array.length xs in
  let n = m - config.Approximation.checkpoints in
  List.concat_map
    (fun prefix ->
      List.map
        (fun kernel -> replay_fit kernel ~xs:(Array.sub xs 0 prefix) ~ys:(Array.sub ys 0 prefix))
        config.Approximation.kernels)
    (if n < config.Approximation.min_prefix then []
     else List.init (n - config.Approximation.min_prefix + 1) (( + ) config.Approximation.min_prefix))

let run series =
  let config = Estima.Config.approximation Inputs.base in
  let pconfig = Estima.Config.predictor Inputs.base in
  let gc0 = Util.minor_collections () in
  let predicted, predict_ns, predict_words =
    with_words (fun () -> Api.predict ~config:Inputs.base ~series ~target_max:Inputs.target_max ())
  in
  let predict_minor_gcs = Util.minor_collections () - gc0 in
  let recorder = Estima_obs.Recorder.create () in
  ignore
    (Estima_obs.Recorder.record recorder (fun () ->
         Api.predict ~config:Inputs.base ~series ~target_max:Inputs.target_max ()));
  let program_attempts =
    Option.value ~default:0 (List.assoc_opt "fit.attempts" (Estima_obs.Recorder.counters recorder))
  in
  let extrapolation, extrapolation_ns =
    Util.timed (fun () ->
        Extrapolation.extrapolate ~config ~series ~target_max:Inputs.target_max
          ~include_software:pconfig.Estima.Predictor.include_software
          ~include_frontend:pconfig.Estima.Predictor.include_frontend ())
  in
  match (predicted, extrapolation) with
  | Error _, _ | _, Error _ -> None
  | Ok prediction, Ok ext ->
      let xs = ext.Extrapolation.threads in
      let m = Array.length xs in
      let categories =
        List.filter
          (fun f -> f.Extrapolation.choice.Approximation.fitted.Fit.kernel_name <> "Zero")
          ext.Extrapolation.fits
      in
      let per_category =
        List.map
          (fun (f : Extrapolation.category_fit) ->
            let ys = f.Extrapolation.measured in
            let _, approx_ns =
              Util.timed (fun () ->
                  Approximation.approximate ~config ~subject:f.Extrapolation.category ~xs
                    ~ys ~target_max:(float_of_int Inputs.target_max) ~require_nonnegative:true ())
            in
            let choice = f.Extrapolation.choice in
            (* When every prefix candidate is gated out, the selection
               refits each kernel on the whole series; a winner fitted on
               all m points (or the polynomial fallback) says it did. *)
            let refit =
              m - config.Approximation.checkpoints >= config.Approximation.min_prefix
              && choice.Approximation.prefix = m
            in
            let calls =
              prefix_sweep config ~xs ~ys
              @
              if refit then List.map (fun k -> replay_fit k ~xs ~ys) config.Approximation.kernels
              else []
            in
            let fit_ns = Stats.sum (List.map (fun (c, _) -> c.fit_ns) calls) in
            (approx_ns -. fit_ns, calls))
          categories
      in
      (* Stage C inputs, derived exactly as the predictor derives them. *)
      let scale = pconfig.Estima.Predictor.dataset_factor in
      let spc_grid = Array.map (fun s -> s *. scale) (Extrapolation.stalls_per_core ext) in
      let times =
        Array.map
          (fun t -> t *. pconfig.Estima.Predictor.frequency_scale *. scale)
          (Series.times series)
      in
      let spc_measured =
        Array.map (fun s -> s *. scale)
          (Series.stalls_per_core series ~include_frontend:pconfig.Estima.Predictor.include_frontend
             ~include_software:pconfig.Estima.Predictor.include_software)
      in
      let factor, factor_ns =
        Util.timed (fun () ->
            Estima.Scaling_factor.fit ~config ~threads:xs ~times ~stalls_per_core_measured:spc_measured
              ~stalls_per_core_grid:spc_grid ~target_grid:ext.Extrapolation.target_grid ())
      in
      let factors = Array.mapi (fun i t -> t /. spc_measured.(i)) times in
      let factor_calls = prefix_sweep config ~xs ~ys:factors in
      let calls = List.concat_map snd per_category @ factor_calls in
      let stages_agree =
        match factor with
        | Error _ -> false
        | Ok factor ->
            Estima.Predictor.factor_kernel prediction = factor.Estima.Scaling_factor.fitted.Fit.kernel_name
            && Estima.Predictor.category_kernels prediction
               = List.map
                   (fun f ->
                     ( f.Extrapolation.category,
                       f.Extrapolation.choice.Approximation.fitted.Fit.kernel_name ))
                   ext.Extrapolation.fits
      in
      Some
        {
          predict_ns;
          predict_words;
          predict_minor_gcs;
          extrapolation_ns;
          factor_ns;
          approximation_self_ns = List.map fst per_category;
          fits = List.map fst calls;
          lms = List.concat_map snd calls;
          program_attempts;
          stages_agree;
        }

(* Fill the Lm, Fit and core-stage metrics from replays of several
   predictions; returns whether every cross-check held. *)
let record (report : Report.t) replays =
  let fits = List.concat_map (fun r -> r.fits) replays in
  let lms = List.concat_map (fun r -> r.lms) replays in
  let n = float_of_int (List.length replays) in
  let mean_of f xs = Stats.mean (List.map f xs) in
  let set = Report.set_layer report in
  set "lm.minimize_us" (mean_of (fun l -> l.lm_ns) lms /. 1e3);
  set "lm.iterations" (mean_of (fun l -> float_of_int l.iterations) lms);
  set "lm.converged_ratio" (mean_of (fun l -> if l.converged then 1.0 else 0.0) lms);
  set "lm.alloc_words" (mean_of (fun l -> l.lm_words) lms);
  set "fit.calls_per_predict" (float_of_int (List.length fits) /. n);
  List.iter
    (fun (k : Kernel.t) ->
      let of_kernel = List.filter (fun c -> c.kernel = k.Kernel.name) fits in
      set (Printf.sprintf "fit.%s_us" k.Kernel.name) (mean_of (fun c -> c.fit_ns) of_kernel /. 1e3))
    Catalogue.all;
  let nonlinear = List.filter (fun c -> c.starts > 0) fits in
  set "fit.starts_per_call" (mean_of (fun c -> float_of_int c.starts) nonlinear);
  set "fit.ok_ratio" (mean_of (fun c -> if c.ok then 1.0 else 0.0) fits);
  set "fit.alloc_words" (mean_of (fun c -> c.fit_words) fits);
  set "extrapolation_ms" (mean_of (fun r -> r.extrapolation_ns) replays /. 1e6);
  set "scaling_factor_ms" (mean_of (fun r -> r.factor_ns) replays /. 1e6);
  set "approximation.self_us"
    (Stats.mean (List.concat_map (fun r -> r.approximation_self_ns) replays) /. 1e3);
  set "predict.alloc_mwords" (mean_of (fun r -> r.predict_words) replays /. 1e6);
  set "predict.minor_gcs" (mean_of (fun r -> float_of_int r.predict_minor_gcs) replays);
  set "layers.coverage_ratio"
    (Stats.ratio
       (Stats.sum (List.map (fun r -> r.extrapolation_ns +. r.factor_ns) replays))
       (Stats.sum (List.map (fun r -> r.predict_ns) replays)));
  List.for_all (fun r -> r.stages_agree && r.program_attempts = List.length r.fits) replays
