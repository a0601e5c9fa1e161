open Estima_numerics
open Estima_kernels
module Trace = Estima_obs.Trace

type t = { fitted : Fit.fitted; correlation : float; measured_factors : float array }

(* Trace helpers for the factor-selection stage; no-ops without a sink. *)
let trace_candidate ~kernel ~prefix ~verdict ~score detail =
  if Trace.enabled () then
    Trace.emit
      (Trace.Candidate
         {
           stage = Trace.factor_stage;
           subject = Trace.factor_subject;
           kernel;
           prefix;
           verdict;
           score;
           detail;
         })

let trace_decision ~incumbent ~challenger ~winner ~rule detail =
  if Trace.enabled () then
    Trace.emit
      (Trace.Decision
         {
           stage = Trace.factor_stage;
           subject = Trace.factor_subject;
           incumbent;
           challenger;
           winner;
           rule;
           detail;
         })

let trace_winner ~kernel ~prefix ~score ~correlation =
  if Trace.enabled () then
    Trace.emit
      (Trace.Winner
         { stage = Trace.factor_stage; subject = Trace.factor_subject; kernel; prefix; score; correlation })

let constant_fit value =
  Fit.of_closure "ConstantFactor" [| value |] ~y_scale:1.0 ~fit_rmse:0.0 (fun _ -> value)

let median xs = Stats.quantile 0.5 xs

(* Predicted times from the factor's values over the target grid. *)
let times_of factors ~stalls_per_core_grid = Array.mapi (fun i f -> f *. stalls_per_core_grid.(i)) factors

let fit ?(config = Approximation.default_config) ~threads ~times ~stalls_per_core_measured
    ~stalls_per_core_grid ~target_grid () =
  let m = Array.length threads in
  let err cause = Diag.error ~stage:Diag.Translate ~subject:Trace.factor_subject cause in
  if m = 0 then err (Diag.Short_series { points = 0; needed = 1 })
  else if m <> Array.length times then
    err (Diag.Mismatched_lengths { what = "times"; expected = m; got = Array.length times })
  else if m <> Array.length stalls_per_core_measured then
    err
      (Diag.Mismatched_lengths
         {
           what = "stalls_per_core_measured";
           expected = m;
           got = Array.length stalls_per_core_measured;
         })
  else if Array.length stalls_per_core_grid <> Array.length target_grid then
    err
      (Diag.Mismatched_lengths
         {
           what = "stalls_per_core_grid";
           expected = Array.length target_grid;
           got = Array.length stalls_per_core_grid;
         })
  else begin
    match
      Array.to_seq stalls_per_core_measured
      |> Seq.zip (Array.to_seq threads)
      |> Seq.find (fun (_, s) -> s <= 0.0)
    with
    | Some (n, s) ->
        err (Diag.Bad_value { what = Printf.sprintf "stalls per core at %g threads" n; value = s })
    | None ->
  let factors = Array.init m (fun i -> times.(i) /. stalls_per_core_measured.(i)) in
  let target_max = target_grid.(Array.length target_grid - 1) in
  (* The factor translates stalled cycles per core into seconds; it drifts
     with the core count but cannot leave the measured range by much — a
     candidate that decays (or grows) far beyond anything observed is a
     fitting artefact that would silently cancel the stall trends. *)
  let f_min = Array.fold_left Float.min factors.(0) factors in
  let f_max = Array.fold_left Float.max factors.(0) factors in
  (* Every candidate is evaluated over the target grid and the measured
     thread counts: each kernel stages its pass over them once per call. *)
  let target = Kernel.grid target_grid and measured = Kernel.grid threads in
  let in_range values =
    Array.for_all (fun v -> Float.is_finite v && v >= 0.25 *. f_min && v <= 4.0 *. f_max) values
  in
  (* Candidate factor functions: every kernel on every prefix, as in the
     stall regression, but scored by correlation of the resulting time
     curve with stalls per core. *)
  (* Selection: maximise the correlation of predicted time with stalls per
     core (the paper's criterion).  A constant factor trivially achieves
     correlation 1.0, so candidates within a small correlation band of the
     best compete on how well they fit the measured factor values — that
     is what lets a genuinely core-count-dependent factor (the paper's
     Figure 5h) win over the degenerate constant. *)
  let correlation_band = 0.02 in
  let best = ref None in
  (* The correlation bar every challenger must clear (or reach the band
     of) is the highest correlation any accepted candidate achieved; it
     never drops when an RMSE tie-break crowns a winner with a slightly
     lower correlation.  The bar is a selection device only — the
     correlation *reported* for the final choice is always that
     candidate's own (it used to be this bar, i.e. possibly the displaced
     incumbent's). *)
  let bar = ref Float.neg_infinity in
  let label kernel prefix = Printf.sprintf "%s@%d" kernel prefix in
  let consider ~prefix fitted =
    let kernel = fitted.Fit.kernel_name in
    let factor_values = Fit.values fitted target in
    if not (in_range factor_values) then
      trace_candidate ~kernel ~prefix ~verdict:(Trace.Rejected Trace.Factor_range) ~score:Float.nan
        (Printf.sprintf "factor leaves the measured range [%.4g, %.4g] (x0.25 / x4 slack)" f_min
           f_max)
    else begin
      let predicted = times_of factor_values ~stalls_per_core_grid in
      if not (Vec.all_finite predicted && Array.for_all (fun t -> t >= 0.0) predicted) then
        trace_candidate ~kernel ~prefix ~verdict:(Trace.Rejected Trace.Non_finite) ~score:Float.nan
          "non-finite or negative predicted times"
      else begin
        let corr = Stats.pearson predicted stalls_per_core_grid in
        let rmse = Stats.rmse (Fit.values fitted measured) factors in
        if not (Float.is_finite corr && Float.is_finite rmse) then
          trace_candidate ~kernel ~prefix ~verdict:(Trace.Rejected Trace.Non_finite) ~score:Float.nan
            "correlation or factor RMSE not finite"
        else
          match !best with
          | Some (_, _, best_rmse, best_prefix, best_kernel) ->
              let best_corr = !bar in
              if corr > best_corr +. correlation_band then begin
                trace_decision ~incumbent:(label best_kernel best_prefix)
                  ~challenger:(label kernel prefix) ~winner:(label kernel prefix)
                  ~rule:"correlation"
                  (Printf.sprintf "correlation %.4f clears band over %.4f" corr best_corr);
                trace_candidate ~kernel ~prefix ~verdict:Trace.Accepted ~score:rmse
                  (Printf.sprintf "corr %.4f" corr);
                bar := Float.max corr best_corr;
                best := Some (fitted, corr, rmse, prefix, kernel)
              end
              else if corr >= best_corr -. correlation_band && rmse < best_rmse then begin
                trace_decision ~incumbent:(label best_kernel best_prefix)
                  ~challenger:(label kernel prefix) ~winner:(label kernel prefix)
                  ~rule:"rmse-tie-break"
                  (Printf.sprintf
                     "corr %.4f within %.2f band of %.4f; factor RMSE %.4g < %.4g" corr
                     correlation_band best_corr rmse best_rmse);
                trace_candidate ~kernel ~prefix ~verdict:Trace.Accepted ~score:rmse
                  (Printf.sprintf "corr %.4f" corr);
                bar := Float.max corr best_corr;
                best := Some (fitted, corr, rmse, prefix, kernel)
              end
              else
                trace_candidate ~kernel ~prefix ~verdict:(Trace.Rejected Trace.Tie_break) ~score:rmse
                  (Printf.sprintf "corr %.4f, factor RMSE %.4g loses to %s (corr %.4f, RMSE %.4g)"
                     corr rmse (label best_kernel best_prefix) best_corr best_rmse)
          | None ->
              trace_candidate ~kernel ~prefix ~verdict:Trace.Accepted ~score:rmse
                (Printf.sprintf "first surviving candidate, corr %.4f" corr);
              bar := corr;
              best := Some (fitted, corr, rmse, prefix, kernel)
      end
    end
  in
  (* Factor candidates fit and pass the realism gate independently per
     (prefix, kernel) pair — that part fans out on the domain pool — while
     [consider], whose correlation-band decisions depend on the running
     best, folds the survivors sequentially in submission order, keeping
     the selection and its trace byte-identical to the sequential
     search. *)
  Estima_par.Fanout.map_consume (Approximation.candidates config ~points:m)
    ~f:(fun (prefix, kernel) ->
      match Approximation.fit_prefix kernel ~xs:threads ~ys:factors ~prefix with
      | None ->
          trace_candidate ~kernel:kernel.Kernel.name ~prefix
            ~verdict:(Trace.Rejected Trace.Fit_failed) ~score:Float.nan
            "kernel could not be fitted on this prefix";
          None
      | Some fitted ->
          if Fit.realistic fitted ~x_min:1.0 ~x_max:target_max ~require_nonnegative:true then
            Some (prefix, fitted)
          else begin
            trace_candidate ~kernel:fitted.Fit.kernel_name ~prefix
              ~verdict:(Trace.Rejected Trace.Realism) ~score:Float.nan
              "pole, explosion or deep negativity inside [1, target]";
            None
          end)
    ~consume:(function Some (prefix, fitted) -> consider ~prefix fitted | None -> ());
  (* Always offer the constant-median factor as a candidate: with flat
     series it is frequently the most faithful translator. *)
  consider ~prefix:m (constant_fit (median factors));
  match !best with
  | Some (fitted, correlation, rmse, prefix, kernel) ->
      trace_winner ~kernel ~prefix ~score:rmse ~correlation;
      Ok { fitted; correlation; measured_factors = factors }
  | None ->
      let fitted = constant_fit (median factors) in
      trace_winner ~kernel:fitted.Fit.kernel_name ~prefix:m ~score:Float.nan
        ~correlation:Float.nan;
      Ok { fitted; correlation = Float.nan; measured_factors = factors }
  end

let predict_times t ~stalls_per_core_grid ~target_grid =
  times_of (Fit.values t.fitted (Kernel.grid target_grid)) ~stalls_per_core_grid
