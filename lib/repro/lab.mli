(** Shared machinery for the reproduction experiments: standard machine
    setups, a memoised measurement cache (several tables reuse the same
    ground-truth sweeps), and the standard prediction protocol. *)

open Estima_machine
open Estima_counters
open Estima_workloads
open Estima

val opteron_1socket : Topology.t
val xeon20_1socket : Topology.t
val opteron_2sockets : Topology.t

val repetitions : int
(** Averaged simulator runs per measured point (5). *)

val ok : ('a, Diag.t) result -> 'a
(** Unwrap a pipeline stage result.  The repro experiments run on
    known-good suite inputs, so a diagnostic is a harness bug: raises
    [Failure] with the rendered diagnostic. *)

val measure : ?seed:int -> entry:Suite.entry -> machine:Topology.t -> max_threads:int -> unit -> Series.t
(** Cached collection at 1..max_threads. *)

val sweep : ?seed:int -> entry:Suite.entry -> machine:Topology.t -> unit -> Series.t
(** Cached full-machine ground-truth sweep (distinct seed base from
    {!measure}, as in a separate validation campaign). *)

val predict :
  ?software:bool ->
  ?checkpoints:int ->
  ?dataset_factor:float ->
  ?target_threads:int ->
  entry:Suite.entry ->
  measure_machine:Topology.t ->
  measure_max:int ->
  target_machine:Topology.t ->
  unit ->
  Predictor.t
(** The standard protocol: measure on [measure_machine] (cached), apply the
    frequency scale towards [target_machine], predict up to its core count
    (or [target_threads] when given, e.g. all SMT contexts of a socket).
    [software] defaults to true when the workload has plugins. *)

val sweep_threads :
  ?seed:int -> entry:Suite.entry -> machine:Topology.t -> max_threads:int -> unit -> Series.t
(** Ground-truth sweep up to an explicit thread count (SMT included). *)

val errors_against_truth :
  prediction:Predictor.t -> truth:Series.t -> ?from_threads:int -> unit -> Diag.Quality.t

val max_error_upto : Diag.Quality.t -> threads:int -> float
(** Maximum per-point error restricted to core counts <= [threads] —
    Table 4's "2 CPUs / 3 CPUs / 4 CPUs" columns. *)

val baseline :
  entry:Suite.entry ->
  measure_machine:Topology.t ->
  measure_max:int ->
  target_machine:Topology.t ->
  unit ->
  Time_extrapolation.t
(** Time-extrapolation comparator under the same protocol. *)

val cache_stats : unit -> int * int
(** (hits, misses) of the shared measurement store
    ({!Estima_store.Store.stats} of the default store), for diagnostics.
    The in-memory tier holds compute-once promise entries shared across
    domains, so the counts do not depend on the jobs setting: misses =
    distinct keys collected, and a requester that waits on an in-flight
    collection counts as a hit.  With a disk store attached, entries
    found on disk count as hits. *)
