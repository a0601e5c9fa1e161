open Estima_counters
module Rng = Estima_numerics.Rng
module Stats = Estima_numerics.Stats

type curve = { category : string; fitted : float array; measured : float array }
type band = { lo : float; median : float; hi : float }
type verdict = Scales | Stops_at of { lo : int; hi : int } | Uncertain

type t = {
  resamples : int;
  succeeded : int;
  seed : int;
  level : float;
  scaling_fraction : float;
  bands : band array;
  stop_interval : (int * int) option;
  verdict : verdict;
}

(* One wild-bootstrap draw: a resampled residual with a Rademacher sign
   flip.  The sign flip symmetrises the (short) residual sets and keeps
   the draw honest when the window holds as few as two points.  Exactly
   two generator consumptions per draw, so the stream layout is part of
   the determinism contract. *)
let draw_residual rng ~scale residuals =
  let e = residuals.(Rng.int rng (Array.length residuals)) in
  let sign = if Rng.bool rng 0.5 then 1.0 else -1.0 in
  scale *. sign *. e

(* Build one synthetic measurement window: fitted curves plus resampled
   residuals, for every fitted stall category and for the time column.
   Stall values are clamped at zero (negative stall cycles are
   meaningless and would only defeat the refit); a non-positive time draw
   falls back to the measured time, keeping the series valid. *)
let resample_series ~rng ~scale ~(series : Series.t) ~curves ~fitted_times =
  let samples = series.Series.samples in
  let m = Array.length samples in
  let perturbed = Hashtbl.create 16 in
  List.iter
    (fun { category; fitted; measured } ->
      let residuals = Array.init m (fun i -> measured.(i) -. fitted.(i)) in
      let values =
        Array.init m (fun i -> Float.max 0.0 (fitted.(i) +. draw_residual rng ~scale residuals))
      in
      Hashtbl.replace perturbed category values)
    curves;
  let times =
    let residuals =
      Array.init m (fun i -> samples.(i).Sample.time_seconds -. fitted_times.(i))
    in
    Array.init m (fun i ->
        let v = fitted_times.(i) +. draw_residual rng ~scale residuals in
        if v > 0.0 then v else samples.(i).Sample.time_seconds)
  in
  let samples' =
    Array.to_list
      (Array.mapi
         (fun i (s : Sample.t) ->
           let value c v =
             match Hashtbl.find_opt perturbed c with Some arr -> arr.(i) | None -> v
           in
           {
             s with
             Sample.time_seconds = times.(i);
             counters = List.map (fun (c, v) -> (c, value c v)) s.Sample.counters;
             software = List.map (fun (c, v) -> (c, value c v)) s.Sample.software;
           })
         samples)
  in
  Series.make ~machine:series.Series.machine ~spec_name:series.Series.spec_name samples'

(* Per-multiple-of-the-window relative uncertainty floor.  Refitting
   resampled windows only measures how noise inside the window bends the
   chosen curve; a workload that fits its window near-perfectly (tiny
   residuals) would get bands of essentially zero width, while its
   held-out truth still drifts away from the model as the extrapolation
   stretches.  The floor charges 1% of the predicted time per window
   multiple beyond the window (3% at 48 cores from a 12-core window), so
   the bands are prediction intervals, not just curve-confidence
   intervals. *)
let extrapolation_floor = 0.01

(* Turn one resampled curve into an observation draw: multiply each grid
   point by (1 + u) where u combines a resampled relative time residual
   from the window with the extrapolation floor, under a single
   Rademacher sign.  Exactly two generator consumptions per grid point,
   on the resample's own stream.  [classify] never sees these draws —
   the verdict tracks the refit ensemble, not per-point noise. *)
let observe rng ~scale ~rel_residuals ~window ~target_grid times =
  Array.mapi
    (fun j t ->
      let e = Float.abs rel_residuals.(Rng.int rng (Array.length rel_residuals)) in
      let sign = if Rng.bool rng 0.5 then 1.0 else -1.0 in
      let floor = extrapolation_floor *. Float.max 0.0 (target_grid.(j) -. window) /. window in
      t *. Float.max 0.0 (1.0 +. (scale *. sign *. (e +. floor))))
    times

let level = 0.90

(* The master generator's seed: the collection default. *)
let seed = 42

let estimate ?(residual_scale = 1.0) ~resamples ~series ~curves ~fitted_times ~base_times
    ~target_grid ~predict ~classify () =
  if resamples < 1 then invalid_arg "Confidence.estimate: resamples must be >= 1";
  (* Split one child generator per resample on the submitting domain, in
     resample order, before any parallel work: each fan-out task then
     consumes only its own stream, making the ensemble independent of the
     jobs knob. *)
  let master = Rng.create seed in
  let rngs = Array.init resamples (fun _ -> Rng.split master) in
  let window =
    Array.fold_left
      (fun acc (s : Sample.t) -> Float.max acc (float_of_int s.Sample.threads))
      1.0 series.Series.samples
  in
  let rel_residuals =
    Array.mapi
      (fun i (s : Sample.t) ->
        if fitted_times.(i) > 0.0 then
          (s.Sample.time_seconds -. fitted_times.(i)) /. fitted_times.(i)
        else 0.0)
      series.Series.samples
  in
  let outcomes =
    Estima_par.Fanout.map rngs ~f:(fun rng ->
        let synthetic =
          resample_series ~rng ~scale:residual_scale ~series ~curves ~fitted_times
        in
        match predict synthetic with
        | None -> None
        | Some times ->
            let noisy =
              observe rng ~scale:residual_scale ~rel_residuals ~window ~target_grid times
            in
            Some (noisy, classify times))
  in
  let runs = Array.of_list (List.filter_map Fun.id (Array.to_list outcomes)) in
  let succeeded = Array.length runs in
  let q_lo = (1.0 -. level) /. 2.0 in
  let q_hi = 1.0 -. q_lo in
  let bands =
    if succeeded = 0 then Array.map (fun v -> { lo = v; median = v; hi = v }) base_times
    else
      Array.init (Array.length base_times) (fun j ->
          let xs = Array.map (fun (times, _) -> times.(j)) runs in
          {
            lo = Stats.quantile q_lo xs;
            median = Stats.quantile 0.5 xs;
            hi = Stats.quantile q_hi xs;
          })
  in
  let stops =
    Array.of_list
      (List.filter_map
         (fun (_, v) -> match v with `Stops_at k -> Some (float_of_int k) | `Scales -> None)
         (Array.to_list runs))
  in
  let scaling_fraction, stop_interval =
    if succeeded = 0 then
      (* Degenerate ensemble: fall back to the base prediction's verdict
         so the caller still gets a self-consistent summary. *)
      match classify base_times with
      | `Scales -> (1.0, None)
      | `Stops_at k -> (0.0, Some (k, k))
    else
      let fraction = float_of_int (succeeded - Array.length stops) /. float_of_int succeeded in
      let interval =
        if Array.length stops = 0 then None
        else
          let round q = int_of_float (Float.round (Stats.quantile q stops)) in
          Some (round q_lo, round q_hi)
      in
      (fraction, interval)
  in
  let verdict =
    if scaling_fraction >= q_hi then Scales
    else if scaling_fraction <= q_lo then
      match stop_interval with
      | Some (lo, hi) -> Stops_at { lo; hi }
      | None -> Uncertain
    else Uncertain
  in
  {
    resamples;
    succeeded;
    seed;
    level;
    scaling_fraction;
    bands;
    stop_interval;
    verdict;
  }

let verdict_to_string t =
  match t.verdict with
  | Scales ->
      Printf.sprintf "scales (%.0f%% of resamples agree)" (100.0 *. t.scaling_fraction)
  | Stops_at { lo; hi } when lo = hi ->
      Printf.sprintf "stops at %d cores (%.0f%% interval)" lo (100.0 *. t.level)
  | Stops_at { lo; hi } ->
      Printf.sprintf "stops between %d and %d cores (%.0f%% interval)" lo hi
        (100.0 *. t.level)
  | Uncertain ->
      Printf.sprintf "might not scale: only %.0f%% of resamples scale"
        (100.0 *. t.scaling_fraction)
