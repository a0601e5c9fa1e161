(** Dense row-major float matrices.

    Sized for the fitting stack: systems here have at most a few dozen rows
    (one per measurement) and a handful of columns (one per kernel
    coefficient), so simplicity and numerical robustness win over blocking. *)

type t

val create : int -> int -> float -> t
(** [create rows cols x] is the matrix filled with [x]. *)

val init : int -> int -> (int -> int -> float) -> t

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val identity : int -> t

val of_arrays : float array array -> t
(** Raises [Invalid_argument] if the rows are ragged or there are none. *)

val to_arrays : t -> float array array

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product; raises [Invalid_argument] on inner-dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t
