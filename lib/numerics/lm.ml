type objective = {
  residuals : int;
  residual_into : Vec.t -> float array -> unit;
  jacobian_into : Vec.t -> float array -> unit;
  residual : Vec.t -> Vec.t;
}

let objective ~residuals ~residual_into ~jacobian_into =
  let residual params =
    let r = Array.make residuals 0.0 in
    residual_into params r;
    r
  in
  { residuals; residual_into; jacobian_into; residual }

type options = {
  max_iterations : int;
  tolerance_gradient : float;
  tolerance_step : float;
  tolerance_cost : float;
  initial_lambda : float;
  lambda_increase : float;
  lambda_decrease : float;
}

let default_options =
  {
    max_iterations = 200;
    tolerance_gradient = 1e-10;
    tolerance_step = 1e-12;
    tolerance_cost = 1e-12;
    initial_lambda = 1e-3;
    lambda_increase = 10.0;
    lambda_decrease = 10.0;
  }

type outcome = Converged | Max_iterations | Stalled

type result = { params : Vec.t; cost : float; iterations : int; outcome : outcome }

(* The iteration's reductions, inlined: a float a call returns is boxed.
   Each repeats the operations and order of its Vec counterpart
   ([Vec.dot a a], [Vec.norm2], [Vec.norm_inf]). *)
let[@inline] sum_of_squares a =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. a.(i))
  done;
  !acc

let[@inline] cost_of_residual r = 0.5 *. sum_of_squares r

let[@inline] norm2 a = sqrt (sum_of_squares a)

let[@inline] norm_inf a =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := Float.max !acc (Float.abs a.(i))
  done;
  !acc

let lambda_ceiling = 1e12

(* Every buffer one [minimize] call needs, allocated once per call so an
   iteration allocates nothing.  Not shared between calls, so concurrent
   fits need no locks. *)
type workspace = {
  m : int;  (** Residuals. *)
  n : int;  (** Parameters. *)
  jacobian : float array;  (** m x n row-major J at [params], written by the objective. *)
  stacked : float array;  (** (m+n) x n row-major [J; sqrt(lambda diag)]; QR leaves R in it. *)
  rhs : float array;  (** [-r; 0], then Q^T of it. *)
  reflector : float array;
  diag : float array;  (** Column sums of squares of J: the Marquardt scaling. *)
  grad : float array;  (** J^T r. *)
  step : float array;
  mutable params : float array;
  mutable trial : float array;  (** Swapped with [params] when a step is accepted. *)
  mutable residual : float array;  (** r at [params], written by the objective. *)
  mutable trial_residual : float array;  (** Swapped with [residual] when a step is accepted. *)
}

let workspace ~m ~n =
  let buf k = Array.make k 0.0 in
  {
    m;
    n;
    jacobian = buf (m * n);
    stacked = buf ((m + n) * n);
    rhs = buf (m + n);
    reflector = buf (m + n);
    diag = buf n;
    grad = buf n;
    step = buf n;
    params = buf n;
    trial = buf n;
    residual = buf m;
    trial_residual = buf m;
  }

(* J^T r and the column scales, each a sum from 0.0 in row order. *)
let gradient_and_scales ws =
  let n = ws.n in
  for j = 0 to n - 1 do
    let g = ref 0.0 and d = ref 0.0 in
    for i = 0 to ws.m - 1 do
      let v = ws.jacobian.((i * n) + j) in
      g := !g +. (v *. ws.residual.(i));
      d := !d +. (v *. v)
    done;
    ws.grad.(j) <- !g;
    (* Guard against zero columns: damp against unit scale instead. *)
    ws.diag.(j) <- Float.max !d 1e-30
  done

(* Write the damped system [J; sqrt(lambda) * sqrt(diag)] and its
   right-hand side [-r; 0] into the stacked buffers; true when every
   damping entry is finite.  Inlined so that [lambda] is not boxed. *)
let[@inline] stack_damped ws lambda =
  let m = ws.m and n = ws.n in
  let a = ws.stacked in
  Array.blit ws.jacobian 0 a 0 (m * n);
  for i = 0 to m - 1 do
    ws.rhs.(i) <- -.ws.residual.(i)
  done;
  Array.fill a (m * n) (n * n) 0.0;
  let finite = ref true in
  for j = 0 to n - 1 do
    let d = sqrt (lambda *. ws.diag.(j)) in
    a.(((m + j) * n) + j) <- d;
    if not (Float.is_finite d) then finite := false;
    ws.rhs.(m + j) <- 0.0
  done;
  !finite

(* Solve the damped normal equations (J^T J + lambda diag(J^T J)) p = -J^T r
   into [ws.step] via QR on the stacked system, to avoid forming J^T J
   explicitly.  Below J's m rows, damping row m + j is +0 but in column j,
   so column k holds +0 below row m + k and reflector k sweeps rows k to
   m + k only (Qr's band m).  That gives the full sweep's bits when every
   damping entry is finite and the band's step is finite and not singular
   (Qr.solve_in_place says why); otherwise the system is stacked again and
   solved over every row.  Inlined so that [lambda] is not boxed. *)
let[@inline] solve_damped_step ws lambda =
  let m = ws.m and n = ws.n in
  let banded =
    stack_damped ws lambda
    &&
    match Qr.solve_in_place ~rows:(m + n) ~cols:n ~band:m ws.stacked ws.rhs ~reflector:ws.reflector ws.step with
    | () -> Vec.all_finite ws.step
    | exception Qr.Singular -> false
  in
  if not banded then begin
    ignore (stack_damped ws lambda);
    Qr.solve_in_place ~rows:(m + n) ~cols:n ~band:(m + n) ws.stacked ws.rhs ~reflector:ws.reflector ws.step
  end

let damped_step ~jacobian ~residual ~lambda =
  let m = Vec.dim residual and n = Mat.cols jacobian in
  if Mat.rows jacobian <> m || n = 0 then invalid_arg "Lm.damped_step: dimension mismatch";
  let ws = workspace ~m ~n in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      ws.jacobian.((i * n) + j) <- Mat.get jacobian i j
    done
  done;
  Array.blit residual 0 ws.residual 0 m;
  gradient_and_scales ws;
  solve_damped_step ws lambda;
  Array.copy ws.step

let minimize ?(options = default_options) objective ~init =
  let n = Vec.dim init in
  if n = 0 then invalid_arg "Lm.minimize: empty parameter vector";
  let ws = workspace ~m:objective.residuals ~n in
  objective.residual_into init ws.residual;
  if not (Vec.all_finite ws.residual) then invalid_arg "Lm.minimize: non-finite residual at initial point";
  Array.blit init 0 ws.params 0 n;
  let cost = ref (cost_of_residual ws.residual) in
  let lambda = ref options.initial_lambda in
  let iterations = ref 0 in
  let outcome = ref Max_iterations in
  (try
     while !iterations < options.max_iterations do
       incr iterations;
       objective.jacobian_into ws.params ws.jacobian;
       if not (Vec.all_finite ws.jacobian) then begin
         outcome := Stalled;
         raise Exit
       end;
       gradient_and_scales ws;
       (* Gradient convergence test. *)
       if norm_inf ws.grad < options.tolerance_gradient then begin
         outcome := Converged;
         raise Exit
       end;
       (* Inner loop: grow lambda until a step is accepted. *)
       let accepted = ref false in
       while (not !accepted) && !lambda < lambda_ceiling do
         match solve_damped_step ws !lambda with
         | exception Qr.Singular -> lambda := !lambda *. options.lambda_increase
         | () ->
             for j = 0 to n - 1 do
               ws.trial.(j) <- ws.params.(j) +. ws.step.(j)
             done;
             objective.residual_into ws.trial ws.trial_residual;
             let trial_ok = Vec.all_finite ws.trial_residual in
             let trial_cost = if trial_ok then cost_of_residual ws.trial_residual else Float.infinity in
             if trial_ok && trial_cost < !cost then begin
               let step_small =
                 norm2 ws.step < options.tolerance_step *. (norm2 ws.params +. options.tolerance_step)
               in
               let cost_small = !cost -. trial_cost < options.tolerance_cost *. Float.max !cost 1e-300 in
               let previous = ws.params in
               ws.params <- ws.trial;
               ws.trial <- previous;
               let previous = ws.residual in
               ws.residual <- ws.trial_residual;
               ws.trial_residual <- previous;
               cost := trial_cost;
               lambda := Float.max (!lambda /. options.lambda_decrease) 1e-12;
               accepted := true;
               if step_small || cost_small then begin
                 outcome := Converged;
                 raise Exit
               end
             end
             else lambda := !lambda *. options.lambda_increase
       done;
       if not !accepted then begin
         outcome := Stalled;
         raise Exit
       end
     done
   with Exit -> ());
  { params = ws.params; cost = !cost; iterations = !iterations; outcome = !outcome }

let finite_difference_jacobian residual p =
  let r0 = residual p in
  let m = Vec.dim r0 and n = Vec.dim p in
  let jac = Mat.create m n 0.0 in
  let eps = sqrt epsilon_float in
  for j = 0 to n - 1 do
    let h = eps *. Float.max 1.0 (Float.abs p.(j)) in
    let plus = Vec.copy p and minus = Vec.copy p in
    plus.(j) <- plus.(j) +. h;
    minus.(j) <- minus.(j) -. h;
    let rp = residual plus and rm = residual minus in
    for i = 0 to m - 1 do
      Mat.set jac i j ((rp.(i) -. rm.(i)) /. (2.0 *. h))
    done
  done;
  jac
