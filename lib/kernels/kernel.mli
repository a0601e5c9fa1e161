(** Extrapolation function kernels (paper Table 1).

    A kernel is a parametric family of analytic functions of the core count.
    ESTIMA fits each kernel to the measured values of one stall category and
    extrapolates the best fit to higher core counts.  The fitting machinery
    is in {!Fit}; this module defines the common shape. *)

open Estima_numerics

type t = private {
  name : string;  (** Table 1 name, e.g. ["Rat22"]. *)
  arity : int;  (** Number of coefficients. *)
  eval : Vec.t -> float -> float;
      (** [eval params x] evaluates the function at core count [x].  May
          return non-finite values near poles; callers must filter. *)
  objective : xs:float array -> ys:float array -> Lm.objective;
      (** [objective ~xs ~ys] stages the least-squares objective of one
          fit: whatever depends only on the core counts (powers,
          logarithms) is tabulated once per fit (a table only the
          Jacobian reads, on its first write), and the returned
          objective writes residuals [eval p x_i - y_i] and the Jacobian
          [d eval / d p_j] into {!Lm.minimize}'s buffers without
          allocating.  Its arithmetic repeats [eval]'s operands and order,
          so a residual it writes is bit-for-bit [eval p x_i -. y_i]. *)
  initial_guesses : xs:float array -> ys:float array -> Vec.t list;
      (** Candidate starting points for the nonlinear fit, typically from a
          linearised least-squares solve plus robust fallbacks.  May be
          empty when the kernel cannot apply (e.g. ExpRat on non-positive
          data). *)
  linear : bool;
      (** True when [eval] is linear in the coefficients, in which case the
          fit is a single QR solve and the initial guesses are exact. *)
}

val make :
  name:string ->
  arity:int ->
  eval:(Vec.t -> float -> float) ->
  objective:(xs:float array -> ys:float array -> Lm.objective) ->
  initial_guesses:(xs:float array -> ys:float array -> Vec.t list) ->
  linear:bool ->
  t
(** The only constructor.  [objective] must fit the model [eval]
    computes: a kernel that changes one changes both. *)

val applicable : t -> npoints:int -> bool
(** A kernel can only be fitted when there are at least as many points as
    coefficients. *)

val residual_objective : t -> xs:float array -> ys:float array -> Lm.objective
(** The kernel's staged [objective] for {!Lm.minimize}.  Raises
    [Invalid_argument] when [xs] and [ys] differ in length. *)

type grid
(** A fixed array of core counts, evaluated many times: the realism scan's
    257 points over one range, or one selection's checkpoints.  Each
    kernel tabulates its per-x work over the grid on its first {!values}
    pass ([log x] for CubicLn, [x ** 2.5] for Poly25) and keeps it with
    the grid, so the tables are built once per grid, not once per
    candidate.  Safe to share between domains. *)

val grid : float array -> grid
(** [grid xs] is a grid over [xs], which it keeps and never writes. *)

val grid_xs : grid -> float array
(** The core counts the grid was built over. *)

val values : t -> grid -> Vec.t -> float array -> unit
(** [values kernel grid params out] writes [kernel.eval params x_i] into
    [out.(i)] for every core count [x_i] of [grid], bit for bit, in one
    pass that allocates nothing once the kernel has been staged over the
    grid.  The pass is the kernel's staged [objective] against zero
    targets, whose residual [eval p x -. 0.0] is [eval p x]: the objective
    stays the one copy of the kernel's arithmetic. *)
