(** Dense float vectors.

    A thin layer over [float array] with the operations the fitting stack
    needs.  All functions are total unless documented otherwise; dimension
    mismatches raise [Invalid_argument]. *)

type t = float array

val init : int -> (int -> float) -> t

val dim : t -> int

val copy : t -> t

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val max_elt : t -> float
(** Raises [Invalid_argument] on the empty vector. *)

val min_elt : t -> float
(** Raises [Invalid_argument] on the empty vector. *)

val all_finite : t -> bool
(** True when no component is NaN or infinite. *)
