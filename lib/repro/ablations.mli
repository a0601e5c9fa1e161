(** Design-choice ablations (DESIGN.md section 5).

    - Fine-grain vs aggregate stalls (paper Section 2.5): rerunning the
      prediction with the five backend counters collapsed into a single
      aggregate event; the aggregate behaves like time extrapolation and
      misses inflections.
    - Checkpoint count c in {2, 4} (Section 3.1.2).
    - The anti-overfitting prefix sweep on/off. *)

val run : unit -> unit
