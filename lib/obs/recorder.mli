(** An in-memory trace sink: accumulates events and per-span timing for
    later rendering or audit aggregation.  Per-run counters are not a
    separate channel: {!counters} derives them from the recorded events. *)

type span_stat = {
  path : string list;  (** Span path, outermost first. *)
  count : int;  (** Number of times the span closed. *)
  total_ns : int64;  (** Accumulated duration across closes. *)
}

type t

val create : unit -> t

val events : t -> Trace.event list
(** Recorded events in emission order. *)

val counters : t -> (string * int) list
(** The kernel-fit counters, derived from the recorded
    {!Trace.Fit_attempt} events and sorted by name: [fit.attempts] (one
    per event), then [fit.failed], [fit.lm-converged] and
    [fit.lm-unconverged] by the attempt's status.  Zero counts are
    omitted. *)

val span_stats : t -> span_stat list
(** Per-span timing, sorted by total time descending. *)

val record : t -> (unit -> 'a) -> 'a
(** [record t f] runs [f] with [t] installed as the trace sink and
    restores the previously installed sink afterwards (also on raise).
    While [f] runs, [t] is the only sink: an enclosing one sees none of
    [f]'s events or span closes. *)
