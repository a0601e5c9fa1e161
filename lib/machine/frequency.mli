(** Cross-machine frequency scaling.

    When the measurements and target machines run at different clock rates,
    the paper scales measured execution time by the ratio of frequencies
    (Section 4.3).  Cycle counts are frequency-neutral and are not scaled. *)

val time_scale : measured_on:Topology.t -> target:Topology.t -> float
(** Multiplier applied to execution times measured on [measured_on] to
    express them in [target]'s clock domain:
    [measured_freq / target_freq]. *)
