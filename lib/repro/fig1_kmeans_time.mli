(** Figure 1: time extrapolation mispredicts kmeans.

    Direct extrapolation of kmeans' execution time from a 12-core window
    predicts continued scaling up to 48 cores; the measured machine stops
    improving far earlier.  This motivates using stalled cycles at all. *)

type result = {
  grid : float array;
  baseline_times : float array;  (** Time-extrapolation prediction. *)
  measured_times : float array;
  baseline_verdict : Estima.Diag.Quality.verdict;
  measured_verdict : Estima.Diag.Quality.verdict;
}

val compute : unit -> result

val run : unit -> unit
