(** Figures 10 & 11: identifying future bottlenecks and fixing them
    (Section 4.6).

    streamcluster (pthread wrapper) and intruder (SwissTM statistics) are
    extrapolated from one Opteron processor with software stalls; the
    dominant predicted category points at the synchronisation construct.
    Figure 11 re-measures the fixed variants (spinlock barriers; batched
    decode) on the full machine and reports the improvement. *)

val run : unit -> unit
