open Estima_numerics
open Estima_kernels
module Trace = Estima_obs.Trace

type config = { checkpoints : int; min_prefix : int; kernels : Kernel.t list }

let default_config = { checkpoints = 4; min_prefix = 3; kernels = Catalogue.all }

type choice = { fitted : Fit.fitted; prefix : int; checkpoint_rmse : float }

(* Candidates whose checkpoint RMSEs differ by less than this relative
   margin are statistically indistinguishable; the full-series fit decides
   between them. *)
let tie_margin = 0.10

let fallback_kernel_name = "PolyFallback"

let checkpoint_indices ~m ~c = List.init c (fun i -> m - c + i)

let sub_prefix arr n = Array.sub arr 0 n

let fit_prefix kernel ~xs ~ys ~prefix =
  if prefix > Array.length xs then invalid_arg "Approximation.fit_prefix: prefix too long";
  Fit.fit kernel ~xs:(sub_prefix xs prefix) ~ys:(sub_prefix ys prefix)

(* Trace helpers, all guarded on [Trace.enabled]: with no sink installed
   the selection loop below runs exactly as before. *)
let trace_candidate ~subject ~kernel ~prefix ~verdict ~score detail =
  if Trace.enabled () then
    Trace.emit
      (Trace.Candidate
         { stage = Trace.stall_stage; subject; kernel; prefix; verdict; score; detail })

let trace_winner ~subject (choice : choice) =
  if Trace.enabled () then
    Trace.emit
      (Trace.Winner
         {
           stage = Trace.stall_stage;
           subject;
           kernel = choice.fitted.Fit.kernel_name;
           prefix = choice.prefix;
           score = choice.checkpoint_rmse;
           correlation = Float.nan;
         })

let choice_label (c : choice) = Printf.sprintf "%s@%d" c.fitted.Fit.kernel_name c.prefix

(* Short-series / last-resort fallback: least-squares polynomials of
   decreasing degree on all points; the degree-0 fit (the mean of
   non-negative data) is always realistic, so the chain cannot fail on
   stall measurements. *)
let fallback ?(subject = "series") ?(extra_ok = fun (_ : Fit.fitted) -> true) ~xs ~ys ~target_max
    ~require_nonnegative () =
  let m = Array.length xs in
  let try_degree ~gated degree =
    let degree_detail = Printf.sprintf "fallback polynomial, degree %d" degree in
    match Linear_fit.polynomial ~degree ~xs ~ys with
    | exception Qr.Singular ->
        trace_candidate ~subject ~kernel:fallback_kernel_name ~prefix:m
          ~verdict:(Trace.Rejected Trace.Fit_failed) ~score:Float.nan
          (degree_detail ^ ": singular system");
        None
    | coeffs ->
        let eval x = Linear_fit.eval_polynomial coeffs x in
        (* y_scale records the data magnitude so the realism explosion
           bound is scale-correct (the coefficients here are unscaled). *)
        let fitted =
          {
            Fit.kernel_name = fallback_kernel_name;
            params = coeffs;
            y_scale = Float.max 1.0 (Vec.norm_inf ys);
            fit_rmse = Stats.rmse (Array.map eval xs) ys;
            eval;
            values_into = Fit.pointwise eval;
          }
        in
        if not (Fit.realistic fitted ~x_min:1.0 ~x_max:target_max ~require_nonnegative) then begin
          trace_candidate ~subject ~kernel:fallback_kernel_name ~prefix:m
            ~verdict:(Trace.Rejected Trace.Realism) ~score:Float.nan degree_detail;
          None
        end
        else if gated && not (extra_ok fitted) then
          (* [extra_ok] reports its own rejection gate (growth / slope). *)
          None
        else begin
          trace_candidate ~subject ~kernel:fallback_kernel_name ~prefix:m ~verdict:Trace.Accepted
            ~score:fitted.Fit.fit_rmse
            (if gated then degree_detail else degree_detail ^ " (last resort, ungated)");
          Some { fitted; prefix = m; checkpoint_rmse = fitted.Fit.fit_rmse }
        end
  in
  let rec chain ~gated = function
    | [] -> None
    | d :: rest -> (
        match try_degree ~gated d with Some _ as r -> r | None -> chain ~gated rest)
  in
  (* Quadratic fallbacks only serve very short series (the memcached-style
     3-4 point case); on longer series a quadratic extrapolated 4x past its
     data is exactly the Figure 1 failure mode, so the chain is capped at
     linear there. *)
  let degrees = List.filter (fun d -> d <= min 1 (m - 1)) [ 1; 0 ] in
  let degrees = if m <= 4 then List.filter (fun d -> d <= m - 1) [ 2; 1; 0 ] else degrees in
  match chain ~gated:true degrees with
  | Some _ as r -> r
  | None ->
      (* Last resort: the constant mean, accepted unconditionally — every
         category must contribute something to the stall total. *)
      chain ~gated:false [ 0 ]

let approximate ?(config = default_config) ?(subject = "series") ~xs ~ys ~target_max
    ~require_nonnegative () =
  let m = Array.length xs in
  let err cause = Diag.error ~stage:Diag.Extrapolate ~subject cause in
  if m = 0 then err (Diag.Short_series { points = 0; needed = 1 })
  else if m <> Array.length ys then
    err (Diag.Mismatched_lengths { what = "ys"; expected = m; got = Array.length ys })
  else if config.checkpoints <= 0 || config.min_prefix < 2 then
    err
      (Diag.Bad_config
         {
           what =
             Printf.sprintf "checkpoints = %d, min_prefix = %d (need checkpoints > 0, min_prefix >= 2)"
               config.checkpoints config.min_prefix;
         })
  else begin
  let n = m - config.checkpoints in
  let result =
  if n < config.min_prefix then fallback ~subject ~xs ~ys ~target_max ~require_nonnegative ()
  else begin
    (* Every candidate is evaluated over the same core counts: each
       kernel stages its pass over these grids once per call. *)
    let checkpoints = Kernel.grid (Array.sub xs n config.checkpoints) in
    let checkpoint_ys = Array.sub ys n config.checkpoints in
    let series = Kernel.grid xs in

    let best = ref None in
    let full_rmse choice = Stats.rmse (Fit.values choice.fitted series) ys in
    let consider choice =
      match !best with
      | None ->
          trace_candidate ~subject ~kernel:choice.fitted.Fit.kernel_name ~prefix:choice.prefix
            ~verdict:Trace.Accepted ~score:choice.checkpoint_rmse "first surviving candidate";
          best := Some (choice, full_rmse choice)
      | Some (b, b_full) ->
          let kernel = choice.fitted.Fit.kernel_name and prefix = choice.prefix in
          let near_tie =
            Float.abs (choice.checkpoint_rmse -. b.checkpoint_rmse)
            <= tie_margin *. Float.max b.checkpoint_rmse 1e-300
          in
          if near_tie then begin
            let full = full_rmse choice in
            if full < b_full then begin
              trace_candidate ~subject ~kernel ~prefix ~verdict:Trace.Accepted
                ~score:choice.checkpoint_rmse
                (Printf.sprintf "checkpoint tie with %s; full-series RMSE %.4g < %.4g"
                   (choice_label b) full b_full);
              best := Some (choice, full)
            end
            else
              trace_candidate ~subject ~kernel ~prefix ~verdict:(Trace.Rejected Trace.Tie_break)
                ~score:choice.checkpoint_rmse
                (Printf.sprintf "checkpoint tie with %s; full-series RMSE %.4g >= %.4g"
                   (choice_label b) full b_full)
          end
          else if choice.checkpoint_rmse < b.checkpoint_rmse then begin
            trace_candidate ~subject ~kernel ~prefix ~verdict:Trace.Accepted
              ~score:choice.checkpoint_rmse
              (Printf.sprintf "checkpoint RMSE %.4g beats %s (%.4g)" choice.checkpoint_rmse
                 (choice_label b) b.checkpoint_rmse);
            best := Some (choice, full_rmse choice)
          end
          else
            trace_candidate ~subject ~kernel ~prefix ~verdict:(Trace.Rejected Trace.Tie_break)
              ~score:choice.checkpoint_rmse
              (Printf.sprintf "checkpoint RMSE %.4g loses to %s (%.4g)" choice.checkpoint_rmse
                 (choice_label b) b.checkpoint_rmse)
    in
    (* Growth cap, anchored to the data: extrapolated growth from the
       window to the target may not exceed the growth rate observed over
       the window's own tail, compounded per core-count doubling, with a
       1.5x slack — plus an absolute (target/window)^3 outer bound.  A
       category that was flat through the window cannot suddenly grow
        15-fold; one already bending upward (the trends ESTIMA exists to
       catch) earns proportionally more room. *)
    let window = xs.(m - 1) in
    let window_scale = Float.max (Vec.norm_inf ys) 1e-12 in
    let half_index =
      let target = window /. 2.0 in
      let best = ref 0 in
      Array.iteri
        (fun i x -> if Float.abs (x -. target) < Float.abs (xs.(!best) -. target) then best := i)
        xs;
      !best
    in
    let tail_growth =
      Float.max 1.0 (ys.(m - 1) /. Float.max ys.(half_index) (0.01 *. window_scale))
    in
    let doublings = Float.max 1.0 (log (target_max /. window) /. log 2.0) in
    let growth_cap =
      Float.min
        (Float.pow (target_max /. window) 3.0)
        (1.5 *. Float.pow tail_growth doublings)
    in
    let plausible_growth at_target =
      let at_window = Float.max (Float.abs ys.(m - 1)) (0.01 *. window_scale) in
      Float.abs at_target <= growth_cap *. at_window
      (* Trend consistency: a tail that is clearly rising cannot be
         extrapolated by a function that falls back below the window value
         — that contradicts the data it was fitted on. *)
      && (tail_growth < 1.2 || at_target >= 0.8 *. ys.(m - 1))
    in
    (* Slope gate: the extrapolation must leave the window in the measured
       direction and at a comparable rate.  The measured tail slope is the
       least-squares slope of the last few points; the candidate's launch
       slope is a centred difference at the window. *)
    let tail_slope =
      let k = min 4 m in
      let txs = Array.sub xs (m - k) k and tys = Array.sub ys (m - k) k in
      match Linear_fit.polynomial ~degree:1 ~xs:txs ~ys:tys with
      | exception Qr.Singular -> 0.0
      | c -> c.(1)
    in
    let h = 0.5 in
    let slope_ok ~above ~below =
      let launch = (above -. below) /. (2.0 *. h) in
      let flat_band = 0.02 *. window_scale in
      if Float.abs tail_slope <= flat_band then
        (* Flat tail: the candidate may not launch steeply either way. *)
        Float.abs launch <= 2.0 *. flat_band
      else if tail_slope > 0.0 then launch >= 0.3 *. tail_slope
      else launch <= 0.3 *. tail_slope
    in
    (* The growth and slope gates read a candidate at the target and on
       either side of the window. *)
    let launch = Kernel.grid [| target_max; window +. h; window -. h |] in
    (* Runs a gated candidate through realism, growth and slope, reporting
       the first gate that rejects it; [None] means it survived. *)
    let first_failed_gate fitted =
      if not (Fit.realistic fitted ~x_min:1.0 ~x_max:target_max ~require_nonnegative) then
        Some (Trace.Realism, "pole, explosion or deep negativity inside [1, target]")
      else
        let at = Fit.values fitted launch in
        if not (plausible_growth at.(0)) then
          Some
            ( Trace.Growth_cap,
              Printf.sprintf "eval(%.0f)=%.4g vs window %.4g exceeds cap %.3gx" target_max at.(0)
                ys.(m - 1) growth_cap )
        else if not (slope_ok ~above:at.(1) ~below:at.(2)) then
          Some (Trace.Slope, "launch slope at the window contradicts the measured tail trend")
        else None
    in
    (* Gate a fitted candidate (emitting the rejection trace itself) and
       score it; [Some choice] means it survived and goes to [consider].
       Runs inside the parallel fan-out tasks: everything here depends
       only on the candidate, never on the incumbent. *)
    let prepare ~prefix ~checkpoint_rmse fitted =
      match first_failed_gate fitted with
      | Some (gate, detail) ->
          trace_candidate ~subject ~kernel:fitted.Fit.kernel_name ~prefix
            ~verdict:(Trace.Rejected gate) ~score:Float.nan detail;
          None
      | None -> (
          match checkpoint_rmse fitted with
          | Some rmse -> Some { fitted; prefix; checkpoint_rmse = rmse }
          | None ->
              trace_candidate ~subject ~kernel:fitted.Fit.kernel_name ~prefix
                ~verdict:(Trace.Rejected Trace.Non_finite) ~score:Float.nan
                "non-finite checkpoint predictions";
              None)
    in
    (* The candidate search is embarrassingly parallel: each (prefix,
       kernel) pair fits and gates independently, and only [consider] —
       which compares against the running best — runs sequentially, in
       submission order, in this domain.  That split keeps the winner and
       the trace byte-identical to the sequential search. *)
    let candidates =
      Array.of_list
        (List.concat_map
           (fun prefix -> List.map (fun kernel -> (prefix, kernel)) config.kernels)
           (List.init (n - config.min_prefix + 1) (fun i -> config.min_prefix + i)))
    in
    Estima_par.Fanout.map_consume candidates
      ~f:(fun (prefix, kernel) ->
        match fit_prefix kernel ~xs ~ys ~prefix with
        | None ->
            trace_candidate ~subject ~kernel:kernel.Kernel.name ~prefix
              ~verdict:(Trace.Rejected Trace.Fit_failed) ~score:Float.nan
              "kernel could not be fitted on this prefix";
            None
        | Some fitted ->
            prepare ~prefix fitted ~checkpoint_rmse:(fun fitted ->
                let predicted = Fit.values fitted checkpoints in
                if Vec.all_finite predicted then Some (Stats.rmse predicted checkpoint_ys)
                else None))
      ~consume:(function Some choice -> consider choice | None -> ());
    (match !best with
    | Some _ -> ()
    | None ->
        (* Every prefix candidate was gated out.  This happens on short or
           sharply inflecting series where the held-out checkpoints contain
           most of the signal; refit each kernel on the whole series,
           scored by its full-series RMSE, before resorting to polynomial
           fallbacks. *)
        Estima_par.Fanout.map_consume (Array.of_list config.kernels)
          ~f:(fun kernel ->
            match Fit.fit kernel ~xs ~ys with
            | None ->
                trace_candidate ~subject ~kernel:kernel.Kernel.name ~prefix:m
                  ~verdict:(Trace.Rejected Trace.Fit_failed) ~score:Float.nan
                  "kernel could not be refitted on the full series";
                None
            | Some fitted ->
                prepare ~prefix:m fitted ~checkpoint_rmse:(fun fitted -> Some fitted.Fit.fit_rmse))
          ~consume:(function Some choice -> consider choice | None -> ()));
    match !best with
    | Some (choice, _) -> Some choice
    | None ->
        (* Still nothing: fall back, subject to the same gates. *)
        fallback ~subject
          ~extra_ok:(fun f ->
            match first_failed_gate f with
            | None -> true
            | Some (gate, detail) ->
                trace_candidate ~subject ~kernel:fallback_kernel_name ~prefix:m
                  ~verdict:(Trace.Rejected gate) ~score:Float.nan detail;
                false)
          ~xs ~ys ~target_max ~require_nonnegative ()
  end
  in
  match result with
  | Some choice ->
      trace_winner ~subject choice;
      Ok choice
  | None -> err (Diag.No_realistic_fit { window = int_of_float xs.(m - 1) })
  end
