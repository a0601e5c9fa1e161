(* Reference fit core: the allocating Levenberg-Marquardt iteration,
   copying Householder QR and per-point kernel objectives that the
   workspace versions in estima_numerics and the staged kernel objectives
   in estima_kernels replaced, unchanged but for comments and the
   Jacobian's finiteness check, which reads the rows of the matrix, the
   basis evaluations CubicLn and Poly25 carried, and the per-point
   realism scan that Fit.realistic's batched pass replaced.
   Only Test_fit_core calls them, to check that the library returns the
   same bits, iteration counts, outcomes and verdicts. *)

open Estima_numerics
open Estima_kernels

module Qr = struct
  exception Singular = Qr.Singular

  let rank_tolerance = 1e-12

  let factor a =
    let m = Mat.rows a and n = Mat.cols a in
    let r = Mat.to_arrays a in
    let vs = Array.make n [||] in
    let betas = Array.make n 0.0 in
    for k = 0 to min (m - 1) (n - 1) do
      let len = m - k in
      let x = Array.init len (fun i -> r.(k + i).(k)) in
      let alpha = Vec.norm2 x in
      let alpha = if x.(0) >= 0.0 then -.alpha else alpha in
      let v = Array.copy x in
      v.(0) <- v.(0) -. alpha;
      let vnorm2 = Vec.dot v v in
      let beta = if vnorm2 <= 0.0 then 0.0 else 2.0 /. vnorm2 in
      vs.(k) <- v;
      betas.(k) <- beta;
      if beta <> 0.0 then
        for j = k to n - 1 do
          let dot = ref 0.0 in
          for i = 0 to len - 1 do
            dot := !dot +. (v.(i) *. r.(k + i).(j))
          done;
          let s = beta *. !dot in
          for i = 0 to len - 1 do
            r.(k + i).(j) <- r.(k + i).(j) -. (s *. v.(i))
          done
        done
    done;
    (r, vs, betas)

  let apply_qt vs betas b =
    Array.iteri
      (fun k v ->
        let beta = betas.(k) in
        if beta <> 0.0 then begin
          let len = Array.length v in
          let dot = ref 0.0 in
          for i = 0 to len - 1 do
            dot := !dot +. (v.(i) *. b.(k + i))
          done;
          let s = beta *. !dot in
          for i = 0 to len - 1 do
            b.(k + i) <- b.(k + i) -. (s *. v.(i))
          done
        end)
      vs

  let back_substitute r n b =
    let x = Array.make n 0.0 in
    let max_diag = ref 0.0 in
    for k = 0 to n - 1 do
      max_diag := Float.max !max_diag (Float.abs r.(k).(k))
    done;
    let tol = rank_tolerance *. Float.max 1.0 !max_diag in
    for i = n - 1 downto 0 do
      let acc = ref b.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (r.(i).(j) *. x.(j))
      done;
      if Float.abs r.(i).(i) <= tol then raise Singular;
      x.(i) <- !acc /. r.(i).(i)
    done;
    x

  let solve_least_squares a b =
    let m = Mat.rows a and n = Mat.cols a in
    if m <> Array.length b then invalid_arg "Qr.solve_least_squares: dimension mismatch";
    if m < n then invalid_arg "Qr.solve_least_squares: underdetermined system";
    let r, vs, betas = factor a in
    let rhs = Array.copy b in
    apply_qt vs betas rhs;
    back_substitute r n rhs
end

(* ------------------------------------------------------------------ *)
(* Objectives                                                          *)
(* ------------------------------------------------------------------ *)

(* An objective that returns fresh arrays, as Lm.objective did. *)
type objective = { residual : Vec.t -> Vec.t; jacobian : Vec.t -> Mat.t }

(* The per-point gradients Rational and Exp_rat carried. *)
let horner coeffs first last x =
  let acc = ref 0.0 in
  for j = last downto first do
    acc := (!acc *. x) +. coeffs.(j)
  done;
  !acc

let rational_gradient ~num_degree ~den_degree params x =
  let num = horner params 0 num_degree x in
  let den = 1.0 +. (x *. horner params (num_degree + 1) (num_degree + den_degree) x) in
  let g = Array.make (num_degree + den_degree + 1) 0.0 in
  for j = 0 to num_degree do
    g.(j) <- Float.pow x (float_of_int j) /. den
  done;
  for k = 1 to den_degree do
    (* d/db_k of num/den = -num * x^k / den^2 *)
    g.(num_degree + k) <- -.num *. Float.pow x (float_of_int k) /. (den *. den)
  done;
  g

let exp_rat_gradient params x =
  let num = params.(0) +. (params.(1) *. x) in
  let den = params.(2) +. (params.(3) *. x) in
  let f = exp (num /. den) in
  let den2 = den *. den in
  [| f /. den; f *. x /. den; -.f *. num /. den2; -.f *. num *. x /. den2 |]

(* Kernel.residual_objective over the kernel's [eval] and its per-point
   [gradient]. *)
let residual_objective (t : Kernel.t) ~gradient ~xs ~ys =
  let m = Array.length xs in
  if m <> Array.length ys then invalid_arg "Kernel.residual_objective: length mismatch";
  let residual params =
    let r = Array.make m 0.0 in
    for i = 0 to m - 1 do
      r.(i) <- t.eval params xs.(i) -. ys.(i)
    done;
    r
  in
  let jacobian params =
    let jac = Mat.create m t.arity 0.0 in
    for i = 0 to m - 1 do
      let row = gradient params xs.(i) in
      for j = 0 to t.arity - 1 do
        Mat.set jac i j row.(j)
      done
    done;
    jac
  in
  { residual; jacobian }

(* ------------------------------------------------------------------ *)
(* Levenberg-Marquardt                                                 *)
(* ------------------------------------------------------------------ *)

let cost_of_residual r = 0.5 *. Vec.dot r r

let lambda_ceiling = 1e12

let solve_damped_step jac residual lambda =
  let m = Mat.rows jac and n = Mat.cols jac in
  let diag =
    Array.init n (fun j ->
        let acc = ref 0.0 in
        for i = 0 to m - 1 do
          let v = Mat.get jac i j in
          acc := !acc +. (v *. v)
        done;
        Float.max !acc 1e-30)
  in
  let stacked =
    Mat.init (m + n) n (fun i j ->
        if i < m then Mat.get jac i j
        else if i - m = j then sqrt (lambda *. diag.(j))
        else 0.0)
  in
  let rhs = Array.init (m + n) (fun i -> if i < m then -.residual.(i) else 0.0) in
  Qr.solve_least_squares stacked rhs

let minimize ?(options = Lm.default_options) objective ~init =
  if Vec.dim init = 0 then invalid_arg "Lm.minimize: empty parameter vector";
  let r0 = objective.residual init in
  if not (Vec.all_finite r0) then invalid_arg "Lm.minimize: non-finite residual at initial point";
  let params = ref (Vec.copy init) in
  let residual = ref r0 in
  let cost = ref (cost_of_residual r0) in
  let lambda = ref options.initial_lambda in
  let iterations = ref 0 in
  let outcome = ref Lm.Max_iterations in
  (try
     while !iterations < options.max_iterations do
       incr iterations;
       let jac = objective.jacobian !params in
       if not (Array.for_all Vec.all_finite (Mat.to_arrays jac)) then begin
         outcome := Lm.Stalled;
         raise Exit
       end;
       let grad = Mat.mul_vec (Mat.transpose jac) !residual in
       if Vec.norm_inf grad < options.tolerance_gradient then begin
         outcome := Lm.Converged;
         raise Exit
       end;
       let accepted = ref false in
       while (not !accepted) && !lambda < lambda_ceiling do
         match solve_damped_step jac !residual !lambda with
         | exception Qr.Singular -> lambda := !lambda *. options.lambda_increase
         | step ->
             let trial = Vec.add !params step in
             let trial_residual = objective.residual trial in
             let trial_ok = Vec.all_finite trial_residual in
             let trial_cost = if trial_ok then cost_of_residual trial_residual else Float.infinity in
             if trial_ok && trial_cost < !cost then begin
               let step_small =
                 Vec.norm2 step < options.tolerance_step *. (Vec.norm2 !params +. options.tolerance_step)
               in
               let cost_small = !cost -. trial_cost < options.tolerance_cost *. Float.max !cost 1e-300 in
               params := trial;
               residual := trial_residual;
               cost := trial_cost;
               lambda := Float.max (!lambda /. options.lambda_decrease) 1e-12;
               accepted := true;
               if step_small || cost_small then begin
                 outcome := Lm.Converged;
                 raise Exit
               end
             end
             else lambda := !lambda *. options.lambda_increase
       done;
       if not !accepted then begin
         outcome := Lm.Stalled;
         raise Exit
       end
     done
   with Exit -> ());
  { Lm.params = !params; cost = !cost; iterations = !iterations; outcome = !outcome }

(* CubicLn's and Poly25's [eval] as they were: the basis row, built per
   point, dotted with the coefficients; every other kernel's own. *)
let kernel_eval (k : Kernel.t) =
  if k == Cubic_ln.kernel then fun p x ->
    let l = log x in
    Vec.dot p [| 1.0; l; l *. l; l *. l *. l |]
  else if k == Poly25.kernel then fun p x -> Vec.dot p [| 1.0; x; x *. x; Float.pow x 2.5 |]
  else k.Kernel.eval

(* ------------------------------------------------------------------ *)
(* Realism                                                             *)
(* ------------------------------------------------------------------ *)

let explosion_factor = 200.0

(* Fit.realistic as it was: one [eval] call per point, every point. *)
let realistic (fitted : Fit.fitted) ~x_min ~x_max ~require_nonnegative =
  if x_max < x_min then invalid_arg "Fit.realistic: empty range";
  let bound = explosion_factor *. Float.max fitted.Fit.y_scale 1.0 in
  let neg_slack = -0.25 *. Float.max fitted.Fit.y_scale 1.0 in
  let steps = 256 in
  let ok = ref true in
  (for i = 0 to steps do
     let x = x_min +. ((x_max -. x_min) *. float_of_int i /. float_of_int steps) in
     let v = fitted.Fit.eval x in
     if not (Float.is_finite v) then ok := false
     else if Float.abs v > bound then ok := false
     else if require_nonnegative && v < neg_slack then ok := false
   done);
  !ok
