(** Service metrics: monotonic counters and log-bucketed histograms.

    The prediction service ({!Estima_service}) needs to answer "how many
    requests, how many cache hits, what latency" without perturbing the
    work it measures.  This module provides the two instrument kinds the
    wire protocol's [metrics] command dumps:

    - {b counters}: monotonically increasing integers (requests served,
      cache hits and misses, requests shed);
    - {b histograms}: positive samples (latencies in seconds) bucketed
      geometrically — 8 buckets per decade from 1 ns up — read through
      one {!Histogram.snapshot}: count, sum, exact min/max and, by
      {!Histogram.snapshot_quantile}, deterministic quantiles.

    Instruments live in a {!t} registry keyed by name; asking twice for
    the same name returns the same instrument, so call sites need no
    shared setup.  All operations are thread-safe: counters are atomic,
    histograms and the registry take a mutex.  Quantiles are computed
    from bucket counts, so they depend only on the multiset of observed
    samples — never on arrival order or thread interleaving — which is
    what lets tests assert on a dump from a concurrent soak. *)

module Counter : sig
  type t

  val incr : ?by:int -> t -> unit
  (** Add [by] (default 1, must be >= 0; negative increments are
      ignored — counters only go up). *)

  val value : t -> int
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record one sample.  Non-finite samples are dropped; values below
      the first bucket boundary (1 ns) land in the first bucket. *)

  (** A consistent point-in-time capture of the histogram state, taken
      under a single lock acquisition.  Derive anything that combines
      count, sum and quantiles — a rendered metrics line, an assertion in
      a concurrent test — from {e one} snapshot, so a concurrent
      {!observe} between reads cannot tear it. *)
  type snapshot = {
    count : int;
    sum : float;
    min : float;
        (** The exact smallest observed sample — not a bucket boundary.
            [infinity] while empty. *)
    max : float;
        (** The exact largest observed sample (p100) — not a bucket
            upper bound, so tail-latency reports built on it can never
            under- or over-state the maximum.  [neg_infinity] while
            empty. *)
    buckets : (int * int) list;  (** (bucket index, count), sorted. *)
  }

  val snapshot : t -> snapshot

  val snapshot_quantile : snapshot -> float -> float
  (** [snapshot_quantile s q] for [0 <= q <= 1]: an upper bound on the
      value at rank [ceil (q * count)], read from the bucket boundaries
      — except that [q = 0] returns the exact minimum and [q = 1] the
      exact maximum.  [nan] while the histogram is empty.  Raises
      [Invalid_argument] outside [0, 1]. *)
end

type t
(** A metrics registry. *)

val create : unit -> t

val counter : t -> string -> Counter.t
(** The counter registered under this name, created at zero on first
    use.  Raises [Invalid_argument] if the name is registered as a
    histogram. *)

val histogram : t -> string -> Histogram.t
(** The histogram registered under this name, created empty on first
    use.  Raises [Invalid_argument] if the name is registered as a
    counter. *)

val render : t -> string
(** The text dump served by the [metrics] command: one line per
    instrument, sorted by name —

    {v
counter estima_requests_total 1000
histogram estima_latency_seconds count=1000 sum=1.234 min=0.0001 max=0.01 p50=0.00042 p90=0.001 p95=0.0013 p99=0.0024 p100=0.01
    v}

    Floats are printed with [%.6g], except [p100] — the exact maximum
    sample, printed with [%.17g] so it round-trips bit-for-bit (the
    p50..p99 quantiles are bucket upper bounds clamped to it; p100 is
    the one number on the line that is never an approximation). *)
