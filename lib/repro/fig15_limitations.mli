(** Figure 15: the streamcluster limitation (Section 5.4).

    streamcluster's behaviour changes past ~30 cores; a 12-core
    measurement window captures the slowdown only coarsely, while a
    24-core window (two Opteron processors) improves the prediction
    substantially. *)

type window_result = {
  measure_max : int;
  max_error : float;
  verdict : Estima.Diag.Quality.verdict;
  predicted : float array;
}

type result = {
  grid : float array;
  measured : float array;
  from_12 : window_result;
  from_24 : window_result;
}

val compute : unit -> result

val run : unit -> unit
