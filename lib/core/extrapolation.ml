open Estima_kernels
open Estima_counters
module Trace = Estima_obs.Trace

type category_fit = {
  category : string;
  choice : Approximation.choice;
  measured : float array;
}

type t = { fits : category_fit list; threads : float array; target_grid : float array }

let zero_fit category measured =
  {
    category;
    choice =
      {
        Approximation.fitted = Fit.of_closure "Zero" [||] ~y_scale:1.0 ~fit_rmse:0.0 (fun _ -> 0.0);
        prefix = Array.length measured;
        checkpoint_rmse = 0.0;
      };
    measured;
  }

(* Stall predictions are clamped at zero everywhere they are consumed:
   kernels are allowed small negative excursions at low core counts (see
   [Fit.realistic]), but a stall count below zero is not physical, and the
   per-category curves must sum to exactly the reported total. *)
let clamped_eval fit n = Float.max 0.0 (fit.choice.Approximation.fitted.Fit.eval n)

(* The largest target core count a prediction extrapolates to.  The
   modelled machines stop at 48 cores, and the work, the grid and the
   rendered answer all grow with the target (one served kmeans predict
   at --jobs 1 on a 2-vCPU x86 host: 22 ms and a 39 KB answer at 1024
   cores, 4 s and 35 MB at 10^6), so this leaves 20x headroom while
   bounding what one request can cost. *)
let max_target = 1024

let extrapolate ?(config = Approximation.default_config) ~series ~target_max ~include_software
    ~include_frontend () =
  let subject = series.Series.spec_name in
  if Array.length series.Series.samples = 0 then
    Diag.error ~stage:Diag.Extrapolate ~subject (Diag.Short_series { points = 0; needed = 1 })
  else if target_max < Series.max_threads series then
    Diag.error ~stage:Diag.Extrapolate ~subject
      (Diag.Target_below_window { target = target_max; window = Series.max_threads series })
  else if target_max > max_target then
    Diag.error ~stage:Diag.Extrapolate ~subject
      (Diag.Bad_config
         { what = Printf.sprintf "target core count %d (need at most %d)" target_max max_target })
  else begin
  let xs = Series.threads series in
  let categories = Series.categories series ~include_frontend in
  let categories =
    if include_software then categories
    else
      (* The software category set is the union across samples, not the
         first sample's list: a plugin that only reports at some thread
         counts must still be excluded everywhere. *)
      let software =
        Array.fold_left
          (fun acc s ->
            List.fold_left
              (fun acc (c, _) -> if List.mem c acc then acc else c :: acc)
              acc s.Sample.software)
          [] series.Series.samples
      in
      List.filter (fun c -> not (List.mem c software)) categories
  in
  let fit_results =
    List.map
      (fun category ->
        Trace.with_span ("category:" ^ category) (fun () ->
            match Series.category_values series category with
            | exception Not_found ->
                (* Some sample lacks the category; name the first thread
                   count where it is missing. *)
                let threads =
                  Array.fold_left
                    (fun acc (s : Sample.t) ->
                      match acc with
                      | Some _ -> acc
                      | None -> (
                          match Sample.counter s category with
                          | (_ : float) -> None
                          | exception Not_found -> Some s.Sample.threads))
                    None series.Series.samples
                  |> Option.value ~default:0
                in
                Diag.error ~stage:Diag.Extrapolate ~subject:category
                  (Diag.Missing_category { category; threads })
            | ys ->
                if Array.for_all (fun v -> v = 0.0) ys then begin
                  if Trace.enabled () then
                    Trace.emit
                      (Trace.Winner
                         {
                           stage = Trace.stall_stage;
                           subject = category;
                           kernel = "Zero";
                           prefix = Array.length ys;
                           score = 0.0;
                           correlation = Float.nan;
                         });
                  Ok (zero_fit category ys)
                end
                else
                  Result.map
                    (fun choice -> { category; choice; measured = ys })
                    (Approximation.approximate ~config ~subject:category ~xs ~ys
                       ~target_max:(float_of_int target_max) ~require_nonnegative:true ())))
      categories
  in
  match
    List.partition_map (function Ok f -> Either.Left f | Error d -> Either.Right d) fit_results
  with
  | fits, [] ->
      let target_grid = Array.init target_max (fun i -> float_of_int (i + 1)) in
      Ok { fits; threads = xs; target_grid }
  | _, d :: _ -> Error d
  end

let total_stalls t n = List.fold_left (fun acc f -> acc +. clamped_eval f n) 0.0 t.fits

let stalls_per_core t = Array.map (fun n -> total_stalls t n /. n) t.target_grid

let dominant_categories t ~at =
  let contributions = List.map (fun f -> (f.category, clamped_eval f at)) t.fits in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 contributions in
  if total <= 0.0 then List.map (fun (c, _) -> (c, 0.0)) contributions
  else
    contributions
    |> List.map (fun (c, v) -> (c, v /. total))
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
