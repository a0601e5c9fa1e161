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
}

val fit : Kernel.t -> xs:float array -> ys:float array -> fitted option
(** [fit kernel ~xs ~ys] returns the best fit found, or [None] when the
    kernel is inapplicable (too few points, no valid starting point, or
    every LM start stalls at a non-finite solution).  Raises
    [Invalid_argument] on length mismatch or empty data. *)

val realistic : fitted -> x_min:float -> x_max:float -> require_nonnegative:bool -> bool
(** The paper discards fits "that are not realistic for this
    approximation".  A fit is realistic over the extrapolation range when a
    dense sample of it is finite, within an explosion bound relative to the
    fitted magnitude, and (for cycle counts) not materially negative. *)
