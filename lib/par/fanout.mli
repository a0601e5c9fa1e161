(** Deterministic parallel fan-out.

    This is the one parallel layer, which the pipeline and the
    prediction server call: it owns the process's one {!Pool}, sized by
    the jobs knob ([--jobs] on the executables, [ESTIMA_JOBS] in the
    environment, the host's available parallelism otherwise) clamped
    per fan-out to the amount of submitted work, and
    guarantees that a parallel run is observationally {e byte-identical}
    to the sequential one:

    - results are consumed in submission order, in the calling domain;
    - with [jobs = 1], from inside a pool task (nested fan-out), on a
      single-element input, or while a trace sink is installed
      ({!Estima_obs.Trace.enabled}), tasks simply run inline in the
      calling domain: no pool, no domains.  Trace state is domain-local,
      so a traced run on one domain emits the event stream, span paths
      and counters of the sequential pipeline by construction.

    If a task raises, [consume] still sees the result of every earlier
    task, then the failing task's exception is re-raised with its
    backtrace — the sequential observable behaviour. *)

val jobs : unit -> int
(** The effective jobs count: the last {!set_jobs} override if any,
    otherwise [ESTIMA_JOBS] (malformed or < 1 values fall back to 1),
    otherwise [Domain.recommended_domain_count ()].  A fan-out clamps
    this further to the number of submitted tasks. *)

val set_jobs : int option -> unit
(** [set_jobs (Some n)] pins the jobs count ([n >= 1], else
    [Invalid_argument]); [set_jobs None] reverts to the [ESTIMA_JOBS]
    environment default.  The shared pool is rebuilt lazily, on the next
    fan-out that needs more domains than it has or once the knob drops
    below its size.  Main-domain knob: do not call from inside tasks. *)

val map : 'a array -> f:('a -> 'b) -> 'b array
(** Parallel [Array.map] with the guarantees above. *)

val map_consume : 'a array -> f:('a -> 'b) -> consume:('b -> unit) -> unit
(** [map_consume xs ~f ~consume] runs [f] on every element (in parallel
    when enabled) and calls [consume] on the results {e sequentially, in
    submission order, in the calling domain}.  This is what lets a
    selection loop keep its incumbent-dependent decisions in the order
    of a sequential run. *)

val shutdown : unit -> unit
(** Shut down the shared pool (it is rebuilt on demand).  Called
    automatically at exit. *)
