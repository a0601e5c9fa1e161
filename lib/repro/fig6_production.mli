(** Figure 6: cross-machine predictions for the production applications.

    memcached measured on 3 hardware threads of the Haswell desktop
    (clients occupy the rest) and SQLite/TPC-C measured on its 4 cores;
    both predicted for the 20-core Xeon20 server with frequency scaling.
    The paper reports errors below 30% (memcached) and 26% (SQLite), with
    the stop-scaling point predicted correctly. *)

val run : unit -> unit
