module Api = Estima.Api
module Json = Estima_json.Json
open Estima_counters

type workload = {
  name : string;
  held_out : int;
  covered : int;
  coverage : float;
}

type t = {
  level : float;
  resamples : int;
  threshold : float;
  workloads : workload list;
  held_out : int;
  covered : int;
  coverage : float;
  passed : bool;
}

(* The band level scored, and the aggregate held-out coverage it must
   reach: a 90% band may miss a little more than 10% of points, not
   systematically more. *)
let level = 0.90

let threshold = 0.85

let default_resamples = 100

(* One workload: bands from the truncated window, scored against the
   held-out truth points — the region above the window is exactly what
   Backtest.run scores for accuracy, so calibration and accuracy talk
   about the same points. *)
let score ~resamples ~residual_scale (source : Backtest.source) =
  let window = source.Backtest.protocol.Report.window in
  let target_max = source.Backtest.protocol.Report.target_max in
  let series = Series.truncate source.Backtest.measured ~max_threads:window in
  match
    Api.predict_with_confidence ~config:source.Backtest.config ~resamples ~level
      ~residual_scale ~series ~target_max ()
  with
  | Error d -> Error d
  | Ok (p, c) ->
      let truth = Series.times source.Backtest.truth in
      let held_out = ref 0 and covered = ref 0 in
      Array.iteri
        (fun i n ->
          if n > float_of_int window then begin
            incr held_out;
            let b = c.Api.Confidence.bands.(i) in
            if truth.(i) >= b.Api.Confidence.lo && truth.(i) <= b.Api.Confidence.hi then
              incr covered
          end)
        p.Estima.Predictor.target_grid;
      let held_out = !held_out and covered = !covered in
      Ok
        {
          name = source.Backtest.name;
          held_out;
          covered;
          coverage = (if held_out = 0 then 1.0 else float_of_int covered /. float_of_int held_out);
        }

let run ?(resamples = default_resamples) ?(residual_scale = 1.0) sources =
  match Backtest.fan_out ~f:(score ~resamples ~residual_scale) sources with
  | Error _ as e -> e
  | Ok workloads ->
      let held_out = List.fold_left (fun acc (w : workload) -> acc + w.held_out) 0 workloads in
      let covered = List.fold_left (fun acc (w : workload) -> acc + w.covered) 0 workloads in
      let coverage =
        if held_out = 0 then 1.0 else float_of_int covered /. float_of_int held_out
      in
      Ok
        {
          level;
          resamples;
          threshold;
          workloads;
          held_out;
          covered;
          coverage;
          passed = coverage >= threshold;
        }

let render_lines t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "calibration (%g%% bands, %d resamples):\n" (100.0 *. t.level) t.resamples);
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "  %-24s %2d/%2d held-out points covered (%.0f%%)\n" w.name w.covered
           w.held_out (100.0 *. w.coverage)))
    t.workloads;
  Buffer.add_string buf
    (Printf.sprintf "calibration coverage: %.1f%% of %d points (threshold %.0f%%): %s\n"
       (100.0 *. t.coverage) t.held_out (100.0 *. t.threshold)
       (if t.passed then "ok" else "FAIL"));
  Buffer.contents buf

let workload_to_json w =
  Json.Obj
    [
      ("workload", Json.String w.name);
      ("held_out", Json.Int w.held_out);
      ("covered", Json.Int w.covered);
      ("coverage", Json.Float w.coverage);
    ]

let to_json t =
  Json.Obj
    [
      ("level", Json.Float t.level);
      ("resamples", Json.Int t.resamples);
      ("threshold", Json.Float t.threshold);
      ("workloads", Json.List (List.map workload_to_json t.workloads));
      ("held_out", Json.Int t.held_out);
      ("covered", Json.Int t.covered);
      ("coverage", Json.Float t.coverage);
      ("passed", Json.Bool t.passed);
    ]
