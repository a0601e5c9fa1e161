(** Figure 9: weak scaling (Section 4.5).

    genome and intruder measured on one Xeon20 socket with the default
    dataset, predicted for the full machine running a 2x dataset; the
    ground truth is the full machine actually running the doubled dataset.
    As in the paper, the single-core point is excluded from the error
    statistics (the simple dataset scaling misses it). *)

val run : unit -> unit
