(** Summary statistics and error metrics used throughout the pipeline. *)

val mean : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val std_dev : float array -> float
(** Population standard deviation.  Raises [Invalid_argument] on an empty
    array. *)

val rmse : float array -> float array -> float
(** [rmse predicted actual] is the root mean square error, summed over
    both inputs scaled by the power of two that puts their largest
    magnitude near 1, then scaled back: scaling both inputs by [2^k]
    scales it by exactly [2^k], also where the unscaled squares would
    underflow or overflow.  Raises [Invalid_argument] on length mismatch
    or empty input. *)

val pearson : float array -> float array -> float
(** Pearson product-moment correlation, of each input scaled by the power
    of two that puts its largest magnitude near 1: scaling either input
    by [2^k] leaves its bits unchanged.  Returns [nan] when either input
    is constant (zero variance); raises [Invalid_argument] on length
    mismatch or fewer than two points. *)

val quantile : float -> float array -> float
(** [quantile q xs] with [q] in [0,1]; linear interpolation between order
    statistics.  Raises [Invalid_argument] on empty input or [q] outside
    [0,1]. *)

val argmax : float array -> int
(** Index of the first maximal element. *)
