(** Figure 7: ESTIMA vs direct time extrapolation.

    For the workloads where the two methods diverge most (the paper
    highlights intruder, yada, kmeans and friends), compare the maximum
    prediction errors and the scalability verdicts of both methods on the
    full Opteron. *)

val run : unit -> unit
