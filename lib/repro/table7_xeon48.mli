(** Table 7: predictions targeting the Xeon48 from both sockets of Xeon20
    (Section 5.5).

    Measuring across both Xeon20 sockets captures NUMA effects; the
    resulting Xeon48 predictions are better clustered (lower average,
    standard deviation and maximum) than the single-socket Table 4
    Xeon20 column. *)

val run : unit -> unit
