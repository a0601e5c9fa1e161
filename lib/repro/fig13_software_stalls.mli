(** Figures 13 & 14: the value of software stalled cycles (Section 5.3).

    For every workload with an instrumented runtime (SwissTM statistics or
    the pthread wrapper), compare Opteron prediction errors with and
    without the software categories.  Figure 14's streamcluster close-up —
    hardware-only stalls miss the synchronisation bottleneck and correlate
    worse with time — is included as correlations. *)

val run : unit -> unit
