(** Deterministic pseudo-random number generation.

    All stochastic components of the simulator and the multi-start fitter
    draw from this splitmix64 generator so that every test, example and
    benchmark run is reproducible bit-for-bit.  The state is explicit: no
    hidden global generator is consulted. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed.  Two generators
    created from the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives a statistically independent child generator and
    advances [t].  Used to give each simulated core its own stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p] (clamped to [0, 1]). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal sample. *)

