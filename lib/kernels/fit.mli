(** Fitting one kernel to one stall-category series.

    Data is normalised (values divided by their maximum magnitude) before
    fitting so that the Levenberg-Marquardt iteration sees O(1) residuals
    regardless of whether the category reports 1e3 or 1e12 cycles; every
    Table 1 family is closed under output scaling, so this changes nothing
    mathematically.  Nonlinear kernels are fitted by multi-start LM from the
    kernel's linearised guesses; linear kernels by a single QR solve. *)

open Estima_numerics

type fitted = {
  kernel_name : string;
  params : Vec.t;  (** Coefficients in the normalised output space. *)
  y_scale : float;  (** Multiplier restoring original units. *)
  fit_rmse : float;  (** RMSE against the fitted points, original units. *)
  eval : float -> float;  (** Evaluation in original units. *)
  values_into : Kernel.grid -> float array -> unit;
      (** [values_into grid out] writes [eval x_i] into [out.(i)] for every
          core count [x_i] of [grid], bit for bit, in one pass.  A kernel
          fit runs {!Kernel.values} and scales by [y_scale], allocating
          nothing; a fit built from a closure passes {!pointwise}. *)
}

val of_kernel : Kernel.t -> Vec.t -> y_scale:float -> fit_rmse:float -> fitted
(** The fit of [kernel] with coefficients [params] (normalised output
    space), as {!fit} returns it: [eval x] is
    [kernel.eval params x *. y_scale]. *)

val pointwise : (float -> float) -> Kernel.grid -> float array -> unit
(** The [values_into] of a fit that is a closure (the polynomial
    fallback, a constant factor, a zero category): one call per point. *)

val values : fitted -> Kernel.grid -> float array
(** [eval] at every core count of the grid, from one [values_into] pass. *)

val fit : Kernel.t -> xs:float array -> ys:float array -> fitted option
(** [fit kernel ~xs ~ys] returns the best fit found, or [None] when the
    kernel is inapplicable (too few points, no valid starting point, or
    every LM start stalls at a non-finite solution).  Raises
    [Invalid_argument] on length mismatch or empty data. *)

val realistic : fitted -> x_min:float -> x_max:float -> require_nonnegative:bool -> bool
(** The paper discards fits "that are not realistic for this
    approximation".  A fit is realistic over the extrapolation range when a
    dense sample of it is finite, within an explosion bound relative to the
    fitted magnitude, and (for cycle counts) not materially negative.

    The sample is the 257 points
    [x_min +. ((x_max -. x_min) *. float_of_int i /. 256.)], [i = 0..256],
    evaluated in one [values_into] pass and checked in order up to the
    first failing point.  Each domain (not each system thread) keeps the
    last range it scanned, with its grid, each kernel's tables over it and
    a buffer, so the grid is built once per range and the scan of a
    kernel fit allocates nothing.  Raises [Invalid_argument] when
    [x_max < x_min]. *)
