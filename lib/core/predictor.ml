open Estima_counters
open Estima_kernels
module Trace = Estima_obs.Trace

type config = {
  approximation : Approximation.config;
  include_software : bool;
  include_frontend : bool;
  frequency_scale : float;
  dataset_factor : float;
}

let default_config =
  {
    approximation = Approximation.default_config;
    include_software = false;
    include_frontend = false;
    frequency_scale = 1.0;
    dataset_factor = 1.0;
  }

type t = {
  config : config;
  series : Series.t;
  target_grid : float array;
  predicted_times : float array;
  stalls_per_core : float array;
  extrapolation : Extrapolation.t;
  factor : Scaling_factor.t;
}

let ( let* ) = Result.bind

(* Above this magnitude a value's square, or a sum of such squares (RMSE,
   Pearson correlation, stalls per core), can overflow to infinity. *)
let max_magnitude = 1e150

(* The first measured value, in sample order, that is not finite or
   exceeds [max_magnitude] in magnitude, as a Bad_value naming its column
   and core count. *)
let check_magnitudes (series : Series.t) =
  let bad (s : Sample.t) =
    ("time_seconds", s.Sample.time_seconds) :: ("cycles", s.Sample.cycles)
    :: ("useful_cycles", s.Sample.useful_cycles) :: (s.Sample.counters @ s.Sample.software)
    |> List.find_opt (fun (_, v) -> not (Float.abs v <= max_magnitude))
    |> Option.map (fun column -> (s.Sample.threads, column))
  in
  match Array.find_map bad series.Series.samples with
  | None -> Ok ()
  | Some (threads, (column, value)) ->
      Diag.error ~stage:Diag.Collect ~subject:series.Series.spec_name
        (Diag.Bad_value
           {
             what =
               Printf.sprintf "%s at %d cores (|value| must be <= %g)" column threads max_magnitude;
             value;
           })

(* The staged pipeline (paper Figure 3): the series in hand is the output
   of stage A (collect — {!Ingest} for external measurements); stage B
   (extrapolate) and stage C (translate) run here, each reporting failure
   as a [Diag.t] rather than an exception. *)
let predict_untraced ~config ~series ~target_max () =
  let* () = check_magnitudes series in
  let* extrapolation =
    Trace.with_span "extrapolate" (fun () ->
        Extrapolation.extrapolate ~config:config.approximation ~series ~target_max
          ~include_software:config.include_software ~include_frontend:config.include_frontend ())
  in
  let target_grid = extrapolation.Extrapolation.target_grid in
  (* Weak scaling: a k-times dataset produces (to first order) k times the
     stall volume per category — the paper's "simple scaling". *)
  let stalls_per_core =
    Array.map (fun s -> s *. config.dataset_factor) (Extrapolation.stalls_per_core extrapolation)
  in
  let threads = Series.threads series in
  let times =
    Array.map (fun t -> t *. config.frequency_scale *. config.dataset_factor) (Series.times series)
  in
  (* Factor inputs: measured stalls per core, scaled consistently with the
     grid so the factor is dataset-neutral. *)
  let stalls_per_core_measured =
    Array.map
      (fun s -> s *. config.dataset_factor)
      (Series.stalls_per_core series ~include_frontend:config.include_frontend
         ~include_software:config.include_software)
  in
  let* factor =
    Trace.with_span "factor" (fun () ->
        Scaling_factor.fit ~config:config.approximation ~threads ~times ~stalls_per_core_measured
          ~stalls_per_core_grid:stalls_per_core ~target_grid ())
  in
  let predicted_times =
    Scaling_factor.predict_times factor ~stalls_per_core_grid:stalls_per_core ~target_grid
  in
  (* Execution-time-vs-cores curves are empirically unimodal: parallelism
     gains, then contention losses.  Once the predicted curve has clearly
     inflected upward (5% above its minimum — predicted curves are smooth analytic forms, so this cannot be noise), a later decline is a
     fitting artefact of the kernel forms, not a physical recovery — clamp
     the tail to monotone. *)
  let predicted_times =
    let n = Array.length predicted_times in
    let out = Array.copy predicted_times in
    let running_min = ref out.(0) in
    let clamping = ref false in
    for i = 1 to n - 1 do
      if !clamping then out.(i) <- Float.max out.(i) out.(i - 1)
      else begin
        if out.(i) < !running_min then running_min := out.(i);
        if out.(i) > 1.05 *. !running_min then clamping := true
      end
    done;
    out
  in
  Ok
    {
      config;
      series;
      target_grid;
      predicted_times;
      stalls_per_core;
      extrapolation;
      factor;
    }

let predict ?(config = default_config) ~series ~target_max () =
  if config.frequency_scale <= 0.0 || config.dataset_factor <= 0.0 then
    Diag.error ~stage:Diag.Collect ~subject:series.Series.spec_name
      (Diag.Bad_config
         {
           what =
             Printf.sprintf "frequency_scale = %g, dataset_factor = %g (both must be positive)"
               config.frequency_scale config.dataset_factor;
         })
  else Trace.with_span "predict" (fun () -> predict_untraced ~config ~series ~target_max ())

let measured_window t = Series.max_threads t.series

let factor_kernel t = t.factor.Scaling_factor.fitted.Fit.kernel_name

let category_kernels t =
  List.map
    (fun f ->
      ( f.Extrapolation.category,
        f.Extrapolation.choice.Approximation.fitted.Fit.kernel_name ))
    t.extrapolation.Extrapolation.fits

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>prediction for %s on %s (measured <= %d cores, predicting <= %d)@,"
    t.series.Series.spec_name t.series.Series.machine.Estima_machine.Topology.name
    (measured_window t)
    (Array.length t.target_grid);
  List.iter
    (fun (category, kernel) -> Format.fprintf ppf "  %-14s ~ %s@," category kernel)
    (category_kernels t);
  Format.fprintf ppf "  factor         ~ %s (corr %.3f)@]" (factor_kernel t)
    t.factor.Scaling_factor.correlation
