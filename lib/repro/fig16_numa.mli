(** Figure 16: accounting for NUMA by measuring past the socket boundary
    (Section 5.5).

    On Xeon20, a 10-core window sees no cross-socket accesses; including a
    few cores of the second socket (here 14) lets ESTIMA capture the NUMA
    trends and improves full-machine predictions. *)

val run : unit -> unit
