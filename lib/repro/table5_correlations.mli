(** Table 5: correlation of stalled cycles per core with execution time
    over full-machine sweeps of all three machines (Opteron, Xeon20,
    Xeon48).  Software stalls are included for the workloads whose runtime
    reports them, matching the paper.  High correlations (mostly > 0.9)
    justify the whole method; errors then stem from function
    approximation, not from the stalls-tell-the-story assumption. *)

val run : unit -> unit
