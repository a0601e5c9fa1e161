(** Figure 7: ESTIMA vs direct time extrapolation.

    For the workloads where the two methods diverge most (the paper
    highlights intruder, yada, kmeans and friends), compare the maximum
    prediction errors and the scalability verdicts of both methods on the
    full Opteron. *)

type row = {
  name : string;
  estima_error : float;
  baseline_error : float;
  estima_agrees : bool;
  baseline_agrees : bool;
}

type result = row list

val compute : unit -> result

val run : unit -> unit
