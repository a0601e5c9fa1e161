(** Figure 12: the lower-correlation cases of Table 5.

    lock-based hash table on Xeon20 and lock-free skip list on Xeon48:
    time and stalls per core have similar curves, but small out-of-sync
    point-to-point changes depress the Pearson coefficient — without
    breaking the extrapolation (Table 4 still predicts them well). *)

val run : unit -> unit
