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

val copy : t -> t
(** Independent copy of the current state. *)

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

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the given
    mean.  [mean] must be positive. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal sample. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples a rank in [0, n) under a Zipf distribution with
    exponent [s], by inverse transform over the precomputed harmonic mass.
    Intended for modest [n] (the key-popularity skew of workloads). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
