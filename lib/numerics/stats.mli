(** Summary statistics and error metrics used throughout the pipeline. *)

val mean : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val std_dev : float array -> float
(** Population standard deviation.  Raises [Invalid_argument] on an empty
    array. *)

val rmse : float array -> float array -> float
(** [rmse predicted actual] is the root mean square error.  Raises
    [Invalid_argument] on length mismatch or empty input. *)

val pearson : float array -> float array -> float
(** Pearson product-moment correlation.  Returns [nan] when either input is
    constant (zero variance); raises [Invalid_argument] on length mismatch
    or fewer than two points. *)

val quantile : float -> float array -> float
(** [quantile q xs] with [q] in [0,1]; linear interpolation between order
    statistics.  Raises [Invalid_argument] on empty input or [q] outside
    [0,1]. *)

val argmax : float array -> int
(** Index of the first maximal element. *)

val argmin : float array -> int
