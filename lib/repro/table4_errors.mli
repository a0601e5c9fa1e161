(** Table 4: maximum prediction errors for the 19 benchmark workloads.

    Opteron: measure one processor (12 cores), predict for 2, 3 and 4
    processors; Xeon20: measure one socket (10 cores), predict the full
    machine.  Errors are the maximum relative deviation of predicted from
    measured execution time over the extrapolated region up to each target
    size, with the summary statistics the paper prints (average, standard
    deviation, maximum). *)

val run : unit -> unit
