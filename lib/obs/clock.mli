(** The process's monotonic clock.

    Trace spans, the server's deadlines and latencies, the wire drain
    deadline and the load driver's timings all read this one clock.  It
    is [CLOCK_MONOTONIC] (through bechamel's monotonic clock): it counts
    while the process sleeps or waits for I/O, unlike processor time, and
    never steps, unlike wall-clock time, so a clock adjustment can neither
    shed requests nor stretch a deadline.  Its origin is arbitrary: only
    differences mean anything. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary fixed origin. *)

val now_s : unit -> float
(** {!now_ns} in seconds, for the float-based deadlines and latencies. *)
