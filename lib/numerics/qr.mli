(** Householder QR factorisation and least-squares solving.

    This is the linear-algebra workhorse under the Levenberg-Marquardt
    fitter: every damped Gauss-Newton step solves an overdetermined system
    [J p = r] in the least-squares sense.  Householder reflections are used
    for numerical stability (the normal equations square the condition
    number, which the near-singular rational-kernel Jacobians cannot
    afford).

    One in-place factorization loop serves every entry point: it applies
    each reflector to the right-hand side as soon as the reflector is
    formed, so neither the reflectors nor Q are ever stored.  Its floating
    point operations, and their order, are part of the contract: each sum
    starts from [0.0] and runs in index order, each update keeps its
    operands, and nothing is fused or reassociated.  Independent sums may
    be interleaved: a reflector's dots with up to four columns, or with
    the right-hand side, share one pass over its rows, each in its own
    accumulator, and that pass's updates share the next.  Fitted kernels,
    and through them the goldens and every byte the CLI and server print,
    depend on those bits. *)

exception Singular
(** Raised when the matrix is numerically rank-deficient. *)

val solve_in_place :
  rows:int ->
  cols:int ->
  band:int ->
  float array ->
  float array ->
  reflector:float array ->
  float array ->
  unit
(** [solve_in_place ~rows ~cols ~band a b ~reflector x] writes into [x]
    (length [>= cols]) the minimiser of [||A x - b||_2], where [a] holds [A]
    row-major ([rows * cols] entries, [rows >= cols]).  Allocates nothing:
    [a] is overwritten with R in its upper triangle (its strictly lower
    part is left unspecified), [b] (length [rows]) with [Q^T b], and
    [reflector] (length [>= rows]) is working storage.
    Raises {!Singular} as {!solve_least_squares} does, leaving [x] partly
    written.

    Reflector k sweeps rows [k] to [k + band] only.  With
    [band >= rows - 1] that is every row: the dense solve, exact for any
    [A].  A smaller band is for the damped system [[J; D]] the
    Levenberg-Marquardt step solves: [J] dense over its first [band] rows,
    then the [cols] rows of [D], row [band + j] all [+0.0] but a finite
    entry other than [-0.0] in column [j], and [b] [+0.0] in them.  Below
    row [band + k], column k then holds [+0.0] when reflector k is formed,
    so every term the band skips is either [+0 * (+0 or an entry of D)],
    which leaves its sum unchanged because a sum started at [+0.0] is
    never [-0.0], or [a - s * (+0)], which leaves [a] ([+0.0] or an entry
    of D) unchanged when the reflector's scale [s] is finite.  So the band
    solve has the dense solve's bits whenever every such [s] is finite.
    The first non-finite [s] leaves a non-finite entry in row k of R or in
    entry k of [Q^T b], in the band solve too, and back substitution turns
    it into a non-finite solution or {!Singular}: a caller that falls back
    to the dense solve then, and whenever an entry of D is infinite, gets
    the dense bits every time.

    The sizes are checked once per call, [Invalid_argument] if a buffer is
    too short, [rows < cols] or [band < 0]: the factorization loop indexes
    unchecked. *)

val solve_least_squares : Mat.t -> Vec.t -> Vec.t
(** [solve_least_squares a b] returns the minimiser of [||a x - b||_2] for a
    matrix with [rows >= cols]: {!solve_in_place} on copies of [a] and [b].
    Raises {!Singular} when a diagonal entry of R underflows the rank
    tolerance, and [Invalid_argument] on dimension mismatch or
    underdetermined systems. *)

val solve_square : Mat.t -> Vec.t -> Vec.t
(** [solve_square a b] solves [a x = b] for square [a] via QR.  Raises
    {!Singular} on rank deficiency. *)

val decompose : Mat.t -> Mat.t * Mat.t
(** [decompose a] returns [(q, r)] with [a = q r], [q] orthogonal
    ([rows x rows]) and [r] upper triangular ([rows x cols]).  Exposed for
    tests; it refactors [a] once per row of [q], so it is not for hot
    paths. *)
