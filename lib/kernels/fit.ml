open Estima_numerics
module Trace = Estima_obs.Trace

type fitted = {
  kernel_name : string;
  params : Vec.t;
  y_scale : float;
  fit_rmse : float;
  eval : float -> float;
  values_into : Kernel.grid -> float array -> unit;
}

(* How far beyond the fitted magnitude an extrapolation may wander before we
   call it an explosion rather than a trend.  Stall categories can grow
   superlinearly towards the target, but nothing physical grows by more
   than ~two orders of magnitude from the measured window. *)
let explosion_factor = 200.0

let values fitted grid =
  let out = Array.make (Array.length (Kernel.grid_xs grid)) 0.0 in
  fitted.values_into grid out;
  out

let of_kernel (kernel : Kernel.t) params ~y_scale ~fit_rmse =
  let values_into grid out =
    Kernel.values kernel grid params out;
    for i = 0 to Array.length (Kernel.grid_xs grid) - 1 do
      out.(i) <- out.(i) *. y_scale
    done
  in
  {
    kernel_name = kernel.Kernel.name;
    params;
    y_scale;
    fit_rmse;
    eval = (fun x -> kernel.Kernel.eval params x *. y_scale);
    values_into;
  }

let of_closure kernel_name params ~y_scale ~fit_rmse eval =
  let values_into grid out =
    let xs = Kernel.grid_xs grid in
    for i = 0 to Array.length xs - 1 do
      out.(i) <- eval xs.(i)
    done
  in
  { kernel_name; params; y_scale; fit_rmse; eval; values_into }

let make_fitted kernel params ~y_scale ~xs ~ys =
  let fitted = of_kernel kernel params ~y_scale ~fit_rmse:Float.nan in
  let predictions = values fitted (Kernel.grid xs) in
  if not (Vec.all_finite predictions) then None
  else Some { fitted with fit_rmse = Stats.rmse predictions ys }

(* Reports one [fit] call to the trace sink; free when tracing is off. *)
let trace_attempt (kernel : Kernel.t) ~npoints status =
  if Trace.enabled () then
    Trace.emit (Trace.Fit_attempt { kernel = kernel.Kernel.name; points = npoints; status })

let status_of_result ~lm_converged = function
  | None -> Trace.Diverged
  | Some fitted -> Trace.Fitted { rmse = fitted.fit_rmse; lm_converged }

let fit (kernel : Kernel.t) ~xs ~ys =
  let npoints = Array.length xs in
  if npoints <> Array.length ys then invalid_arg "Fit.fit: length mismatch";
  if npoints = 0 then invalid_arg "Fit.fit: empty data";
  if not (Kernel.applicable kernel ~npoints) then begin
    trace_attempt kernel ~npoints Trace.Not_applicable;
    None
  end
  else
    let y_scale =
      let m = Vec.norm_inf ys in
      if m > 0.0 then m else 1.0
    in
    let ys_norm = Array.map (fun y -> y /. y_scale) ys in
    let guesses = kernel.Kernel.initial_guesses ~xs ~ys:ys_norm in
    if guesses = [] then begin
      trace_attempt kernel ~npoints Trace.No_guesses;
      None
    end
    else if kernel.Kernel.linear then (
      (* The linearised guess already is the least-squares optimum. *)
      match guesses with
      | params :: _ ->
          let result = make_fitted kernel params ~y_scale ~xs ~ys in
          trace_attempt kernel ~npoints (status_of_result ~lm_converged:true result);
          result
      | [] -> None)
    else begin
      let objective = Kernel.residual_objective kernel ~xs ~ys:ys_norm in
      let best = ref None in
      (* Starts are ranked in guess order: a later start must beat the
         incumbent strictly, so a tie keeps the earlier guess. *)
      List.iter
        (fun init ->
          if Vec.all_finite (objective.Lm.residual init) then
            let r = Lm.minimize objective ~init in
            match !best with
            | Some b when b.Lm.cost <= r.Lm.cost -> ()
            | _ -> best := Some r)
        guesses;
      match !best with
      | None ->
          trace_attempt kernel ~npoints Trace.Diverged;
          None
      | Some r ->
          let result = make_fitted kernel r.Lm.params ~y_scale ~xs ~ys in
          let lm_converged = r.Lm.outcome = Lm.Converged in
          trace_attempt kernel ~npoints (status_of_result ~lm_converged result);
          result
    end

(* The realism scan: 256 equal steps over [x_min, x_max], both ends
   included. *)
let scan_steps = 256

(* Each domain keeps the last range it scanned, that range's grid (which
   holds each kernel's tables for it) and its own buffer.  A prediction
   scans every candidate over [1, target], so a domain builds the tables
   once per range and a scan allocates nothing; domains scanning
   different ranges at once do not rebuild each other's.  A table of
   more than 256 words goes straight to the major heap, so rebuilding
   one per scan costs resident memory. *)
type scan = { mutable x_min : float; mutable x_max : float; mutable grid : Kernel.grid; values : float array }

let scan_state =
  Domain.DLS.new_key (fun () ->
      { x_min = Float.nan; x_max = Float.nan; grid = Kernel.grid [||]; values = Array.make (scan_steps + 1) 0.0 })

let realistic fitted ~x_min ~x_max ~require_nonnegative =
  if x_max < x_min then invalid_arg "Fit.realistic: empty range";
  let bound = explosion_factor *. Float.max fitted.y_scale 1.0 in
  (* Negative excursions are tolerated up to a quarter of the data
     magnitude: downstream consumers clamp stall predictions at zero, and
     hockey-stick categories (near-zero head, exploding tail) force any
     matching fit slightly below zero at low core counts.  Only deeply
     negative fits are nonsense worth rejecting. *)
  let neg_slack = -0.25 *. Float.max fitted.y_scale 1.0 in
  let scan = Domain.DLS.get scan_state in
  if not (scan.x_min = x_min && scan.x_max = x_max) then begin
    scan.grid <-
      Kernel.grid (Array.init (scan_steps + 1) (fun i -> x_min +. ((x_max -. x_min) *. float_of_int i /. 256.)));
    scan.x_min <- x_min;
    scan.x_max <- x_max
  end;
  let values = scan.values in
  fitted.values_into scan.grid values;
  let i = ref 0 in
  while
    !i <= scan_steps
    &&
    let v = values.(!i) in
    Float.is_finite v && (not (Float.abs v > bound)) && not (require_nonnegative && v < neg_slack)
  do
    incr i
  done;
  !i > scan_steps
