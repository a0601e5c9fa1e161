open Estima_counters
module Diag = Estima.Diag
module Quality = Diag.Quality
module Stats = Estima_numerics.Stats

type source = {
  name : string;
  family : string;
  measured : Series.t;
  truth : Series.t;
  config : Estima.Config.t;
  protocol : Report.protocol;
}

let stop_of = function Quality.Scales -> None | Quality.Stops_at k -> Some k

let check_source source =
  let window = source.protocol.Report.window in
  let target_max = source.protocol.Report.target_max in
  let measured_threads = Series.threads source.measured in
  let covered = Array.exists (fun t -> t <= float_of_int window) measured_threads in
  if window < 1 then
    Diag.error ~stage:Diag.Collect ~subject:source.name
      (Diag.Bad_config { what = Printf.sprintf "window = %d (need >= 1)" window })
  else if not covered then
    Diag.error ~stage:Diag.Collect ~subject:source.name
      (Diag.Short_series { points = 0; needed = 1 })
  else
    let truth_points = Array.length (Series.threads source.truth) in
    if truth_points <> target_max then
      Diag.error ~stage:Diag.Collect ~subject:source.name
        (Diag.Mismatched_lengths
           { what = "ground-truth sweep vs target grid"; expected = target_max; got = truth_points })
    else Ok ()

let ( let* ) = Result.bind

let run source =
  let* () = check_source source in
  let window = source.protocol.Report.window in
  let target_max = source.protocol.Report.target_max in
  let series = Series.truncate source.measured ~max_threads:window in
  let* prediction = Estima.Api.predict ~config:source.config ~series ~target_max () in
  let q =
    Estima.Experiment.score ~from_threads:(window + 1) ~prediction ~truth:source.truth ()
  in
  let errs = Array.of_list (List.map snd q.Quality.per_point) in
  let errors =
    {
      Report.max_error = q.Quality.max_error;
      mean_error = q.Quality.mean_error;
      std_error = (if Array.length errs = 0 then 0.0 else Stats.std_dev errs);
    }
  in
  let stop_delta =
    match (stop_of q.Quality.predicted_verdict, stop_of q.Quality.measured_verdict) with
    | Some p, Some m -> Some (p - m)
    | _ -> None
  in
  Ok
    {
      Report.workload = source.name;
      family = source.family;
      protocol = source.protocol;
      errors;
      per_point = q.Quality.per_point;
      predicted_verdict = q.Quality.predicted_verdict;
      measured_verdict = q.Quality.measured_verdict;
      verdict_agrees = q.Quality.verdict_agrees;
      stop_delta;
    }

(* Array.fold_right meets the lowest index's error last, so it wins. *)
let fan_out ~f sources =
  Array.fold_right
    (fun outcome acc -> Result.bind outcome (fun x -> Result.map (List.cons x) acc))
    (Estima_par.Fanout.map (Array.of_list sources) ~f)
    (Ok [])
