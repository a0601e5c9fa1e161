(** The shared measurement plane: a content-addressed, versioned store of
    measurement series.

    Every measurement consumer — the evaluation protocol
    ({!Estima.Experiment}: the repro harness, the validation corpus and
    [compare]), the benchmark, the examples, the CLI and the load
    generator's payloads — resolves series through this store instead of
    re-running the simulator per process.  The store has two tiers:

    - an {b in-memory tier}: compute-once promise entries shared across
      domains (the first requester of a key collects; concurrent
      requesters of the same key block on its completion instead of
      recomputing) — always on;
    - an {b on-disk tier}: one file per entry under a directory, keyed by
      content fingerprint, holding the canonical [%.17g] CSV that
      {!Estima_counters.Csv_export.series_to_csv} emits and
      {!Estima_counters.Series_io.parse} inverts bit-for-bit — enabled by
      {!set_dir} (the CLI's [--store DIR] / [ESTIMA_STORE]), default off.

    {b Keys} fingerprint everything the simulated measurement depends on:
    the workload spec (every field), the machine topology (geometry,
    clock and timing model), the measurement window (exact thread
    counts), seed, repetitions, the plugin set and {!simulator_version}.
    Any change to any component changes the fingerprint, so stale entries
    are never hit — invalidation is purely additive.

    {b Robustness}: disk writes are atomic (temp file + rename); a
    missing, truncated, corrupt or wrong-window entry is a miss (counted
    in [estima_store_invalid_total] when the file existed but did not
    round-trip), never an exception.

    {b Determinism}: the simulator is deterministic per key, so a warm
    read returns byte-identical series to a cold collection; callers need
    no cache-vs-fresh reasoning. *)

module Metrics = Estima_obs.Metrics

val simulator_version : string
(** Version tag of the simulator semantics baked into every fingerprint.
    Bump whenever the engine's output for a given (spec, machine, seed)
    changes, so existing stores invalidate wholesale. *)

module Key : sig
  type t

  val v :
    machine:Estima_machine.Topology.t ->
    spec:Estima_sim.Spec.t ->
    thread_counts:int list ->
    options:Estima_counters.Collector.options ->
    t
  (** Fingerprint the full collection request: machine, spec, window,
      and the collector options (seed, repetitions, plugins, config
      plugins), plus {!simulator_version}. *)

  val fingerprint : t -> string
  (** Hex digest; the disk tier's file name stem. *)

  val describe : t -> string
  (** The canonical pre-image of the fingerprint, one [field=value] per
      line — what the digest is computed over. *)
end

type t

type stats = { hits : int; misses : int; writes : int; invalid : int }
(** Session counters: [hits] = lookups served from memory or disk
    (waiting on an in-flight collection counts as a hit — the work is
    shared); [misses] = lookups that ran the collector; [writes] = disk
    entries written; [invalid] = disk entries rejected as corrupt or
    stale-shaped.  Mirrored monotonically as
    [estima_store_{hits,misses,writes,invalid}_total] in {!metrics}. *)

val create : ?dir:string -> unit -> t
(** A fresh store; the disk tier is enabled iff [dir] is given.  The
    directory is created on first write, not here. *)

val default : unit -> t
(** The process-wide store, created on first use with the disk tier
    taken from the [ESTIMA_STORE] environment variable (unset or empty
    ⇒ memory-only).  {!set_dir} re-points it (the CLI's [--store]). *)

val dir : t -> string option

val set_dir : t -> string option -> unit
(** Enable/disable the disk tier.  Existing in-memory entries remain. *)

val find_or_collect : t -> key:Key.t -> collect:(unit -> Estima_counters.Series.t) -> Estima_counters.Series.t
(** The resolution path: memory tier, then disk tier, then [collect] —
    publishing the result to both tiers.  Concurrent requesters of the
    same key share one collection.  If [collect] raises, the pending
    entry is dropped (waiters retry) and the exception propagates. *)

val stats : t -> stats

val metrics : t -> Metrics.t
(** The registry holding the [estima_store_*_total] counters, for
    merging into a service metrics dump. *)

val reset_memory : t -> unit
(** Drop every in-memory entry and zero {!stats} (metrics counters are
    monotonic and unaffected).  The disk tier is untouched.  Raises
    [Invalid_argument] if a collection is in flight. *)

val disk_entries : t -> (string * int) list
(** [(fingerprint, bytes)] of every disk entry; [[]] when the disk tier
    is off or the directory does not exist. *)

val clear_disk : t -> int
(** Delete every disk entry; returns how many were removed. *)

module Cached : sig
  val collect :
    ?store:t ->
    ?options:Estima_counters.Collector.options ->
    machine:Estima_machine.Topology.t ->
    spec:Estima_sim.Spec.t ->
    thread_counts:int list ->
    unit ->
    Estima_counters.Series.t
  (** Drop-in {!Estima_counters.Collector.collect} that resolves through
      the store ([store] defaults to {!default}): builds the {!Key.v}
      for the request and calls {!find_or_collect}. *)
end
