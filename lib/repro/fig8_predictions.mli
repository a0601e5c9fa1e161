(** Figure 8: prediction curves for raytrace, intruder, yada and kmeans on
    the Opteron (measure one processor, predict the full machine),
    including the time-extrapolation comparator. *)

val run : unit -> unit
