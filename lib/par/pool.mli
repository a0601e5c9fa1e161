(** A small fixed-size domain pool: the one behind {!Fanout}, its only
    caller.

    The pool owns [jobs - 1] worker domains (the calling domain is the
    remaining runner: it executes queued tasks too while waiting, so
    [jobs] tasks make progress at once, and a [jobs = 1] pool spawns no
    domain: its caller runs every task off the queue, in submission
    order).  Domains are spawned once at {!create} and reused across
    {!run} calls until {!shutdown}.

    Built on [Domain.spawn] only — no dependency beyond the stdlib. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1];
    [Invalid_argument] otherwise). *)

val size : t -> int
(** The [jobs] the pool was created with. *)

val run :
  t -> 'a array -> f:('a -> 'b) -> ('b, exn * Printexc.raw_backtrace) result array
(** [run t xs ~f] applies [f] to every element, tasks running on up to
    [size t] domains, and never raises on task failure: each slot carries
    its task's outcome.  An empty input returns [[||]].

    The outcome contract, which {!Fanout} relies on when it consumes a
    failure's prefix before re-raising it:

    - [result.(i)] corresponds to [xs.(i)] in submission order, whatever
      order tasks completed in;
    - [Error (exn, bt)] carries the exception {e and the backtrace
      captured at the raise site inside the task} ([Printexc.get_raw_backtrace]
      in the runner, before any further allocation on that domain), so
      the caller can report where the task died, not where the pool
      noticed;
    - one task failing affects {e only its own slot}: every other task
      still runs to completion and reports its own outcome;
    - the pool itself is unharmed by task failures — no worker domain
      exits, and the next {!run} on the same pool behaves identically to
      one on a fresh pool.

    Calling [run] from inside a task of any pool raises [Failure] with a
    descriptive message: the fixed-size pool cannot nest without risking
    deadlock.  Use {!Fanout.map}, which detects nesting and degrades to
    sequential execution instead. *)

val in_task : unit -> bool
(** [true] while the current domain is executing a pool task (covers both
    worker domains and the calling domain running tasks inline). *)

val shutdown : t -> unit
(** Signal the workers to exit and join them.  Idempotent.  [run] after
    [shutdown] raises [Failure]. *)
