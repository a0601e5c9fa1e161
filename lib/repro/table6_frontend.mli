(** Table 6: does adding frontend stalls help? (Section 5.2)

    For every workload and machine, the change in correlation between
    stalls per core and execution time when frontend stall cycles are
    added to the backend set.  The paper finds the average improvement
    near zero or negative — the justification for backend-only ESTIMA. *)

val run : unit -> unit
