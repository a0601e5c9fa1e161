(** Rational extrapolation kernels of Table 1.

    - Rat22: (a0 + a1 n + a2 n^2) / (1 + b1 n + b2 n^2)
    - Rat23: (a0 + a1 n + a2 n^2) / (1 + b1 n + b2 n^2 + b3 n^3)
    - Rat33: (a0 + a1 n + a2 n^2 + a3 n^3) / (1 + b1 n + b2 n^2 + b3 n^3)

    Parameters are packed numerator-first, then denominator coefficients
    (the constant denominator term is fixed at 1). *)

val rat22 : Kernel.t
val rat23 : Kernel.t
val rat33 : Kernel.t
