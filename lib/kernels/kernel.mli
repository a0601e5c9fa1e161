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
          fit: whatever depends only on the core counts (powers, basis
          values) is tabulated here, once per fit, and the returned
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

val basis_objective : arity:int -> (float -> Vec.t) -> xs:float array -> ys:float array -> Lm.objective
(** The staged objective of a kernel linear in its coefficients, whose
    [eval p x] is [Vec.dot p (basis x)]: the [arity]-wide basis rows are
    tabulated once, each residual is that dot product over its row, and
    the Jacobian is the table itself. *)
