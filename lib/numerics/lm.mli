(** Levenberg-Marquardt nonlinear least squares.

    Minimises [sum_i (f(params, x_i) - y_i)^2] over the parameter vector.
    This is the engine behind every kernel fit in the pipeline: the Table 1
    kernels of the paper are nonlinear in their coefficients (rational and
    exponential-of-rational forms), so a damped Gauss-Newton iteration with
    an adaptive Marquardt parameter is required.

    The Jacobian is supplied analytically by each kernel (see
    {!module:Estima_kernels.Kernel}); a finite-difference fallback is
    provided for tests and ad-hoc models.

    Memory: each {!minimize} call allocates one workspace, about
    [(m+n)*n + m*n + 2(m+n) + 2m + 5n] words for [m] residuals and [n]
    parameters (the stacked damped system, the Jacobian, its right-hand
    side, one Householder reflector, two residuals, the column scales, the
    gradient, the step and two parameter buffers), and solves every damped
    step in it with {!Qr.solve_in_place}.  Each reflector of that solve
    sweeps only the band of rows that can be non-zero below its diagonal
    ([m + 1] rows, not all [m + n]); a step whose damping entries are not
    all finite, or whose band solve comes out non-finite or singular, is
    solved again over every row, so the step has the full solve's bits.
    The objective writes its residuals and Jacobian into that workspace,
    so an iteration allocates nothing.  The workspace belongs to the call: parallel fits share
    nothing and need no locks.

    Bit-for-bit contract: every floating-point operation keeps its operands
    and order (sums start from [0.0] and run in index order, no fused or
    reassociated arithmetic).  The accepted steps decide which kernel wins
    each fit, so a change in the last bit of a cost can change a printed
    prediction; the goldens, the CLI/API/server differential and the
    benchmark's output digest all rely on this. *)

type objective = private {
  residuals : int;  (** [m], the number of residuals. *)
  residual_into : Vec.t -> float array -> unit;
      (** [residual_into p r] writes [f(p, x_i) - y_i] into [r.(i)] for
          every [i < m]. *)
  jacobian_into : Vec.t -> float array -> unit;
      (** [jacobian_into p jac] writes [d residual_i / d p_j] into
          [jac.(i * n + j)] for every [i < m] and [j < n = Vec.dim p]:
          the [m x n] Jacobian, row-major, every entry written. *)
  residual : Vec.t -> Vec.t;
      (** [residual p] is [residual_into p] on a fresh [m]-vector: the
          allocating view for callers outside the iteration. *)
}
(** A least-squares objective that writes into buffers the caller owns;
    {!minimize} passes it buffers from its workspace. *)

val objective :
  residuals:int ->
  residual_into:(Vec.t -> float array -> unit) ->
  jacobian_into:(Vec.t -> float array -> unit) ->
  objective
(** The only constructor; derives [residual] from [residual_into]. *)

type options = {
  max_iterations : int;       (** Outer iteration cap (default 200). *)
  tolerance_gradient : float; (** Stop when [||J^T r||_inf] falls below (1e-10). *)
  tolerance_step : float;     (** Stop when the relative step shrinks below (1e-12). *)
  tolerance_cost : float;     (** Stop when the relative cost decrease is below (1e-12). *)
  initial_lambda : float;     (** Initial Marquardt damping (1e-3). *)
  lambda_increase : float;    (** Damping multiplier on a rejected step (10). *)
  lambda_decrease : float;    (** Damping divisor on an accepted step (10). *)
}

val default_options : options

type outcome =
  | Converged       (** A stopping tolerance was met. *)
  | Max_iterations  (** Iteration cap reached; the best point so far is returned. *)
  | Stalled         (** Damping grew past recovery without an acceptable step. *)

type result = {
  params : Vec.t;       (** Best parameter vector found. *)
  cost : float;         (** Final 0.5 * ||residual||^2. *)
  iterations : int;
  outcome : outcome;
}

val minimize : ?options:options -> objective -> init:Vec.t -> result
(** Runs the iteration from [init].  Non-finite residuals at a trial point
    are treated as a rejected step (damping increases), so kernels with
    poles inside the search region are handled gracefully.  Raises
    [Invalid_argument] if [init] is empty or the residual at [init] is
    non-finite; an objective that writes outside its [m] or [m x n]
    buffer fails the array bounds check. *)

val damped_step : jacobian:Mat.t -> residual:Vec.t -> lambda:float -> Vec.t
(** [damped_step ~jacobian ~residual ~lambda] is the step {!minimize}
    would try from a point with this Jacobian and residual at damping
    [lambda]: the least-squares solution of
    [[J; sqrt(lambda diag)] p = [-r; 0]], [diag] being the column sums of
    squares of [J] (at least [1e-30]).  Raises {!Qr.Singular} as the
    iteration's solve does, and [Invalid_argument] when the dimensions
    disagree or [J] has no column.  Exposed for tests; it allocates a
    workspace per call. *)

val finite_difference_jacobian : (Vec.t -> Vec.t) -> Vec.t -> Mat.t
(** Central-difference Jacobian, step [sqrt eps * max 1 |p_j|].  Useful for
    testing analytic Jacobians and for models without one. *)
